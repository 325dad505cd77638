#ifndef NLIDB_NN_CHECKPOINT_H_
#define NLIDB_NN_CHECKPOINT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/autograd.h"

namespace nlidb {
namespace nn {

/// Order-based model checkpointing.
///
/// Parameters are stored in the deterministic order produced by
/// `Module::CollectParameters`; loading validates tensor count and shapes
/// against the receiving model, so mismatched architectures fail loudly
/// instead of loading garbage.
class Checkpoint {
 public:
  /// Writes `params` to `path` in a small binary format.
  static Status Save(const std::string& path, const std::vector<Var>& params);

  /// Reads tensors from `path` into `params` (in order). Parsing is
  /// staged: the file is fully validated, its CRC32C footer included,
  /// before any parameter is written, so a corrupt checkpoint never
  /// leaves a model half-loaded. Only version 2 (the format Save writes)
  /// is accepted; anything else is ParseError.
  static Status Load(const std::string& path, const std::vector<Var>& params);

  /// Structural integrity check without a receiving model: verifies the
  /// header, the CRC footer, and that every tensor record parses to
  /// exactly the end of the payload. Snapshot selection uses this to
  /// reject torn or corrupt files before mutating any pipeline state.
  static Status Verify(const std::string& path);
};

}  // namespace nn
}  // namespace nlidb

#endif  // NLIDB_NN_CHECKPOINT_H_
