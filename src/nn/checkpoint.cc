#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/file_io.h"

namespace nlidb {
namespace nn {

namespace {

constexpr uint32_t kMagic = 0x4E4C434Bu;  // "NLCK"
constexpr uint32_t kVersion = 2;          // CRC32C footer over header+payload
constexpr uint32_t kMaxRank = 8;

/// Bounds-checked reader over an in-memory checkpoint image. Loading
/// parses the whole file through this before touching any model
/// parameter, so a truncated or corrupt file can never leave garbage
/// weights behind.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* out) {
    if (size_ - off_ < sizeof(uint32_t)) return false;
    std::memcpy(out, data_ + off_, sizeof(uint32_t));
    off_ += sizeof(uint32_t);
    return true;
  }

  bool ReadFloats(float* out, size_t count) {
    const size_t bytes = count * sizeof(float);
    if (size_ - off_ < bytes || bytes / sizeof(float) != count) return false;
    if (out != nullptr) std::memcpy(out, data_ + off_, bytes);
    off_ += bytes;
    return true;
  }

  size_t offset() const { return off_; }

 private:
  const char* data_;
  size_t size_;
  size_t off_ = 0;
};

/// Shared parse for Load and Verify. With `params` set, validates tensor
/// count and shapes against the model and fills `staged` (same length as
/// `params`); with `params` null, only checks structural integrity.
Status ParseImage(const std::string& buf, const std::string& path,
                  const std::vector<Var>* params,
                  std::vector<std::vector<float>>* staged) {
  Cursor in(buf.data(), buf.size());
  uint32_t magic = 0, version = 0, count = 0;
  if (!in.ReadU32(&magic) || !in.ReadU32(&version) || !in.ReadU32(&count)) {
    return Status::ParseError("truncated checkpoint header: " + path);
  }
  if (magic != kMagic) return Status::ParseError("bad magic: " + path);
  if (version != kVersion) {
    return Status::ParseError("unsupported checkpoint version: " + path);
  }
  if (buf.size() < 4 * sizeof(uint32_t)) {
    return Status::ParseError("truncated checkpoint: " + path);
  }
  const size_t payload_end = buf.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + payload_end, sizeof(uint32_t));
  if (stored_crc != Crc32c(buf.data(), payload_end)) {
    return Status::ParseError("corrupt checkpoint (CRC mismatch): " + path);
  }
  if (params != nullptr && count != params->size()) {
    return Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) + " tensors, model has " +
        std::to_string(params->size()));
  }

  Cursor body(buf.data(), payload_end);
  uint32_t skip = 0;
  for (int i = 0; i < 3; ++i) body.ReadU32(&skip);
  if (staged != nullptr) staged->assign(count, {});
  for (uint32_t t = 0; t < count; ++t) {
    uint32_t rank = 0;
    if (!body.ReadU32(&rank)) {
      return Status::ParseError("truncated checkpoint: " + path);
    }
    if (rank > kMaxRank) {
      return Status::ParseError("implausible tensor rank in " + path);
    }
    std::vector<int> shape(rank);
    size_t numel = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      uint32_t dim = 0;
      if (!body.ReadU32(&dim)) {
        return Status::ParseError("truncated checkpoint: " + path);
      }
      shape[d] = static_cast<int>(dim);
      numel *= dim;
    }
    if (params != nullptr && shape != (*params)[t]->value.shape()) {
      return Status::FailedPrecondition("checkpoint shape mismatch in " +
                                        path);
    }
    float* dst = nullptr;
    if (staged != nullptr) {
      (*staged)[t].resize(numel);
      dst = (*staged)[t].data();
    }
    if (!body.ReadFloats(dst, numel)) {
      return Status::ParseError("truncated checkpoint: " + path);
    }
  }
  if (body.offset() != payload_end) {
    return Status::ParseError("trailing bytes in checkpoint: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status Checkpoint::Save(const std::string& path,
                        const std::vector<Var>& params) {
  io::AtomicFileWriter out(path, "checkpoint");
  auto write_u32 = [&out](uint32_t v) { return out.Append(&v, sizeof(v)); };
  NLIDB_RETURN_IF_ERROR(write_u32(kMagic));
  NLIDB_RETURN_IF_ERROR(write_u32(kVersion));
  NLIDB_RETURN_IF_ERROR(write_u32(static_cast<uint32_t>(params.size())));
  NLIDB_RETURN_IF_ERROR(NLIDB_FAILPOINT("checkpoint/after_header"));
  for (const auto& p : params) {
    const auto& shape = p->value.shape();
    NLIDB_RETURN_IF_ERROR(write_u32(static_cast<uint32_t>(shape.size())));
    for (int d : shape) {
      NLIDB_RETURN_IF_ERROR(write_u32(static_cast<uint32_t>(d)));
    }
    NLIDB_RETURN_IF_ERROR(
        out.Append(p->value.data(), p->value.size() * sizeof(float)));
  }
  // Footer: CRC32C of everything above it. Torn or bit-flipped files
  // fail the checksum on load instead of parsing into garbage.
  const uint32_t crc = out.crc();
  NLIDB_RETURN_IF_ERROR(out.Append(&crc, sizeof(crc)));
  return out.Commit();
}

Status Checkpoint::Load(const std::string& path,
                        const std::vector<Var>& params) {
  failpoint::InitFromEnv();
  StatusOr<std::string> contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  // Stage every tensor before installing any: a failure during parsing
  // leaves the model's parameters exactly as they were.
  std::vector<std::vector<float>> staged;
  NLIDB_RETURN_IF_ERROR(ParseImage(*contents, path, &params, &staged));
  for (size_t t = 0; t < params.size(); ++t) {
    std::memcpy(params[t]->value.data(), staged[t].data(),
                staged[t].size() * sizeof(float));
  }
  return Status::Ok();
}

Status Checkpoint::Verify(const std::string& path) {
  StatusOr<std::string> contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  return ParseImage(*contents, path, nullptr, nullptr);
}

}  // namespace nn
}  // namespace nlidb
