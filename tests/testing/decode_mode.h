#ifndef NLIDB_TESTS_TESTING_DECODE_MODE_H_
#define NLIDB_TESTS_TESTING_DECODE_MODE_H_

#include "core/pipeline.h"
#include "core/seq2seq.h"

namespace nlidb {
namespace testing {

/// Pins a pipeline's decode mode for one scope, restoring it on exit.
class ScopedDecodeMode {
 public:
  ScopedDecodeMode(core::NlidbPipeline* pipeline, core::DecodeMode mode)
      : translator_(pipeline->MutableForTraining().translator),
        saved_(translator_->decode_mode()) {
    translator_->set_decode_mode(mode);
  }
  ~ScopedDecodeMode() { translator_->set_decode_mode(saved_); }
  ScopedDecodeMode(const ScopedDecodeMode&) = delete;
  ScopedDecodeMode& operator=(const ScopedDecodeMode&) = delete;

 private:
  core::Seq2SeqTranslator* translator_;
  core::DecodeMode saved_;
};

}  // namespace testing
}  // namespace nlidb

#endif  // NLIDB_TESTS_TESTING_DECODE_MODE_H_
