#include "core/persistence.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "nn/checkpoint.h"

namespace nlidb {
namespace core {

namespace {

constexpr char kClassifierCkpt[] = "classifier.ckpt";
constexpr char kValueDetectorCkpt[] = "value_detector.ckpt";
constexpr char kTranslatorCkpt[] = "translator.ckpt";
constexpr char kClassifierVocab[] = "classifier.vocab";
constexpr char kTranslatorVocab[] = "translator.vocab";
constexpr char kManifest[] = "MANIFEST";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kVocabMagic[] = "NLIDB-VOCAB v2 ";
// Snapshots beyond the newest two are garbage-collected on save: one
// fallback generation is enough to survive any single torn save.
constexpr int kKeepSnapshots = 2;

std::string SnapshotName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06" PRIu64, kSnapshotPrefix, id);
  return buf;
}

/// MANIFEST entries, newest first. Missing file → empty list.
std::vector<std::string> ReadManifest(const std::filesystem::path& base) {
  std::vector<std::string> entries;
  StatusOr<std::string> contents =
      io::ReadFileToString((base / kManifest).string());
  if (!contents.ok()) return entries;
  std::istringstream in(*contents);
  std::string line;
  while (std::getline(in, line)) {
    StripTrailingCr(&line);
    if (!line.empty()) entries.push_back(line);
  }
  return entries;
}

/// Structural validation of one snapshot directory without touching any
/// pipeline state: both vocab files parse (against their CRC) and all
/// three checkpoints pass Checkpoint::Verify.
Status ValidateSnapshot(const std::filesystem::path& snap) {
  NLIDB_RETURN_IF_ERROR(
      LoadVocabTokens((snap / kClassifierVocab).string()).status());
  NLIDB_RETURN_IF_ERROR(
      LoadVocabTokens((snap / kTranslatorVocab).string()).status());
  NLIDB_RETURN_IF_ERROR(
      nn::Checkpoint::Verify((snap / kClassifierCkpt).string()));
  NLIDB_RETURN_IF_ERROR(
      nn::Checkpoint::Verify((snap / kValueDetectorCkpt).string()));
  NLIDB_RETURN_IF_ERROR(
      nn::Checkpoint::Verify((snap / kTranslatorCkpt).string()));
  return Status::Ok();
}

/// Loads the five artifact files from `base` into `pipeline`. Callers
/// validate the snapshot first; an error here still means the vocabulary
/// may have been extended, so it is reserved for architecture mismatches
/// (which fail the whole load), never for corruption fallback.
Status LoadPipelineFrom(NlidbPipeline& pipeline,
                        const std::filesystem::path& base) {
  // Checkpoint loading rewrites the learned parameters, so it goes
  // through the explicit mutable-for-training surface.
  NlidbPipeline::TrainableComponents components =
      pipeline.MutableForTraining();
  // Vocabularies first: AddVocabulary assigns the same ids in file order
  // (and initializes embedding rows, which the checkpoints then
  // overwrite with the trained values).
  auto clf_tokens = LoadVocabTokens((base / kClassifierVocab).string());
  if (!clf_tokens.ok()) return clf_tokens.status();
  components.classifier->AddVocabulary(*clf_tokens);
  auto tr_tokens = LoadVocabTokens((base / kTranslatorVocab).string());
  if (!tr_tokens.ok()) return tr_tokens.status();
  components.translator->AddVocabulary(*tr_tokens);

  NLIDB_RETURN_IF_ERROR(nn::Checkpoint::Load(
      (base / kClassifierCkpt).string(),
      components.classifier->Parameters()));
  NLIDB_RETURN_IF_ERROR(nn::Checkpoint::Load(
      (base / kValueDetectorCkpt).string(),
      components.value_detector->Parameters()));
  NLIDB_RETURN_IF_ERROR(nn::Checkpoint::Load(
      (base / kTranslatorCkpt).string(),
      components.translator->Parameters()));
  return Status::Ok();
}

Status SaveArtifacts(const NlidbPipeline& pipeline,
                     const std::filesystem::path& base) {
  NLIDB_RETURN_IF_ERROR(SaveVocab(pipeline.classifier().vocab(),
                                  (base / kClassifierVocab).string()));
  NLIDB_RETURN_IF_ERROR(SaveVocab(pipeline.translator().vocab(),
                                  (base / kTranslatorVocab).string()));
  NLIDB_RETURN_IF_ERROR(
      nn::Checkpoint::Save((base / kClassifierCkpt).string(),
                           pipeline.classifier().Parameters()));
  NLIDB_RETURN_IF_ERROR(
      nn::Checkpoint::Save((base / kValueDetectorCkpt).string(),
                           pipeline.value_detector().Parameters()));
  NLIDB_RETURN_IF_ERROR(
      nn::Checkpoint::Save((base / kTranslatorCkpt).string(),
                           pipeline.translator().Parameters()));
  return Status::Ok();
}

}  // namespace

Status SaveVocab(const text::Vocab& vocab, const std::string& path) {
  // Ids 0..3 are the fixed specials; persist the rest in id order so the
  // loader reproduces identical ids.
  std::string payload;
  int count = 0;
  for (int id = 4; id < vocab.size(); ++id) {
    payload += vocab.GetToken(id);
    payload += '\n';
    ++count;
  }
  char header[64];
  std::snprintf(header, sizeof(header), "%scrc=%08x count=%d\n", kVocabMagic,
                Crc32c(payload.data(), payload.size()), count);
  return io::WriteFileAtomic(path, std::string(header) + payload,
                             "persistence");
}

StatusOr<std::vector<std::string>> LoadVocabTokens(const std::string& path) {
  StatusOr<std::string> contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  std::string_view body = *contents;
  if (!StartsWith(body, kVocabMagic)) {
    return Status::ParseError("missing vocab header: " + path);
  }
  const size_t eol = body.find('\n');
  if (eol == std::string_view::npos) {
    return Status::ParseError("truncated vocab header: " + path);
  }
  std::string header(body.substr(0, eol));
  StripTrailingCr(&header);
  uint32_t want_crc = 0;
  int want_count = 0;
  if (std::sscanf(header.c_str() + sizeof(kVocabMagic) - 1,
                  "crc=%x count=%d", &want_crc, &want_count) != 2) {
    return Status::ParseError("malformed vocab header: " + path);
  }
  body.remove_prefix(eol + 1);
  if (Crc32c(body.data(), body.size()) != want_crc) {
    return Status::ParseError("corrupt vocab (CRC mismatch): " + path);
  }
  std::vector<std::string> tokens;
  std::istringstream in{std::string(body)};
  std::string line;
  while (std::getline(in, line)) {
    StripTrailingCr(&line);
    if (!line.empty()) tokens.push_back(line);
  }
  if (static_cast<int>(tokens.size()) != want_count) {
    return Status::ParseError("vocab token count mismatch: " + path);
  }
  return tokens;
}

Status SavePipeline(const NlidbPipeline& pipeline, const std::string& dir) {
  static metrics::Counter& saves =
      metrics::MetricsRegistry::Global().GetCounter(
          "persistence.snapshot_saves");
  const std::filesystem::path base(dir);
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (ec) return Status::IoError("cannot create directory: " + dir);

  // Next snapshot id: one past the largest existing snapshot-NNNNNN,
  // whether or not the manifest still references it.
  uint64_t next_id = 1;
  for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kSnapshotPrefix)) continue;
    const uint64_t id =
        std::strtoull(name.c_str() + sizeof(kSnapshotPrefix) - 1, nullptr, 10);
    if (id >= next_id) next_id = id + 1;
  }
  const std::string snap_name = SnapshotName(next_id);
  const std::filesystem::path snap = base / snap_name;
  std::filesystem::create_directories(snap, ec);
  if (ec) return Status::IoError("cannot create directory: " + snap.string());

  NLIDB_RETURN_IF_ERROR(SaveArtifacts(pipeline, snap));

  // The snapshot is durable; dying here (the failpoint models it) leaves
  // the manifest pointing at the previous snapshot, which stays loadable.
  NLIDB_RETURN_IF_ERROR(NLIDB_FAILPOINT("persistence/before_manifest"));

  std::vector<std::string> entries = ReadManifest(base);
  entries.insert(entries.begin(), snap_name);
  std::string manifest;
  std::vector<std::string> expired;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i < kKeepSnapshots) {
      manifest += entries[i];
      manifest += '\n';
    } else {
      expired.push_back(entries[i]);
    }
  }
  NLIDB_RETURN_IF_ERROR(io::WriteFileAtomic((base / kManifest).string(),
                                            manifest, "persistence"));
  // GC only after the manifest no longer references the old snapshots;
  // best-effort, a crash here just leaves an unreferenced directory.
  for (const std::string& name : expired) {
    std::filesystem::remove_all(base / name, ec);
  }
  saves.Increment();
  return Status::Ok();
}

Status LoadPipeline(NlidbPipeline& pipeline, const std::string& dir) {
  static metrics::Counter& fallbacks =
      metrics::MetricsRegistry::Global().GetCounter(
          "persistence.fallback_loads");
  const std::filesystem::path base(dir);
  if (!std::filesystem::exists(base / kManifest)) {
    return Status::NotFound("no snapshot MANIFEST in " + dir);
  }
  const std::vector<std::string> entries = ReadManifest(base);
  if (entries.empty()) {
    return Status::IoError("empty snapshot manifest in " + dir);
  }
  Status last_error = Status::Ok();
  for (size_t i = 0; i < entries.size(); ++i) {
    const std::filesystem::path snap = base / entries[i];
    // Validate before mutating: a snapshot that fails integrity checks
    // is skipped without having touched vocabularies or weights.
    Status valid = ValidateSnapshot(snap);
    if (!valid.ok()) {
      NLIDB_LOG(Warning) << "snapshot " << snap.string()
                         << " failed validation (" << valid.ToString()
                         << "), falling back";
      fallbacks.Increment();
      last_error = std::move(valid);
      continue;
    }
    if (i > 0) {
      NLIDB_LOG(Warning) << "loading fallback snapshot " << snap.string();
    }
    return LoadPipelineFrom(pipeline, snap);
  }
  return Status::IoError("no complete snapshot in " + dir + " (last error: " +
                         last_error.ToString() + ")");
}

}  // namespace core
}  // namespace nlidb
