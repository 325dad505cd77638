// Repository benchmark driver: trains the NLIDB pipeline, runs one named
// workload against it through the public API, checks the outputs, and
// writes raw per-request samples for perfbench/run.py to summarise.
//
//   perfbench_driver --workload interactive|catalog_large --seed N
//                    --seconds S --trace 0|1 --out DIR
//                    [--open-qps Q --open-seconds T --ladder Q1,Q2,..
//                     --rung-seconds T --slo-ms L]
//
// Writes DIR/result.json (raw samples, counter deltas, gate verdicts)
// and, with --trace 1, DIR/spans.tsv (one line per span). Percentiles,
// ratios and the slo ladder verdicts are computed from these raw samples
// by perfbench/stats.py; nothing here reads the pipeline's own
// power-of-two latency histograms.
//
// --trace 1 also drives the workload's requests through ServingEngine
// at a fixed nominal rate and then up a fixed ladder of rates.
//
// Every input (tables, questions, arrival times) is generated from
// --seed. The model is trained at set-up on a fixed corpus, so the
// program under test is the same for every seed; the seed only picks
// the workload's tables and questions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/annotation.h"
#include "core/annotator.h"
#include "core/pipeline.h"
#include "data/domain.h"
#include "data/generator.h"
#include "serving/serving.h"
#include "sql/executor.h"
#include "tensor/gemm_kernels.h"

namespace nlidb {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------
// Fixed workload shape
// ---------------------------------------------------------------------

constexpr int kSetupRepeats = 3;  // setup_s is the median of these
// Closed-loop passes over the pool in a --trace 0 run, at the least.
constexpr size_t kMinPasses = 3;

// Training corpus (fixed seed: the model is part of the program). Smaller
// than the paper benches' corpus, and half of ModelConfig::Small()'s
// seq2seq epochs, so that three full set-ups fit in one run.
constexpr uint64_t kTrainSeed = 1;
constexpr int kTrainTables = 8;  // 70/15/15 split -> 5 training tables
constexpr int kTrainQuestions = 8;
constexpr int kSeq2SeqEpochs = 4;

// Compute pool size for set-up and every phase. One thread: on a shared
// four-core host a wider pool made the closed-loop p50 move by 25% between
// runs of the same code (pool wake-ups measure the scheduler), and it was
// no faster than one thread at this model size.
constexpr int kComputeThreads = 1;

// interactive: registered 12-row tables never seen in training.
constexpr int kInteractiveTables = 125;
constexpr int kInteractiveQuestions = 8;  // per table -> 1000 questions

// catalog_large: 1000 registered tables, 78 of them 2000 rows. Few
// questions per large table, so that no single table's content sets the
// latency tail of a seed.
constexpr int kCatalogSmallTables = 922;
constexpr int kCatalogLargeTables = 78;
constexpr int kLargeRows = 2000;
constexpr int kLargeQuestions = 4;  // per large table -> 312 questions
constexpr int kCatalogRouted = 600;  // routed requests per pool pass
constexpr int kCatalogAdHoc = 88;   // fresh ad-hoc tables per pool pass

// Serving: one generator thread, kServeWorkers engine workers and a
// compute pool of one thread: three busy threads on a four-core machine,
// so the load generator never competes with the engine for a core. The
// offered rates come from the command line (perfbench/run.py fixes them).
constexpr int kServeWorkers = 2;
constexpr int kServeQueueCapacity = 100000;  // overload shows as backlog

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// The generator names tables "<domain>_<id>"; recover the domain so
/// questions can be generated for tables made one at a time.
const data::DomainSpec& DomainOf(const std::string& table_name) {
  const data::DomainSpec* best = nullptr;
  for (const data::DomainSpec& d : data::TrainDomains()) {
    const std::string prefix = d.name + "_";
    if (table_name.rfind(prefix, 0) != 0) continue;
    const std::string rest = table_name.substr(prefix.size());
    if (rest.empty() ||
        rest.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    best = &d;
  }
  if (best == nullptr) {
    std::fprintf(stderr, "no domain for table %s\n", table_name.c_str());
    std::exit(3);
  }
  return *best;
}

/// `n` tables with ids first_id.., `rows` rows and `questions` questions
/// each.
data::Dataset GenerateTables(uint64_t seed, int first_id, int n, int rows,
                             int questions) {
  data::GeneratorConfig gc;
  gc.rows_per_table = rows;
  gc.seed = seed;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  data::Dataset ds;
  for (int t = 0; t < n; ++t) {
    std::shared_ptr<const sql::Table> table = gen.GenerateTable(first_id + t);
    ds.tables.push_back(table);
    const data::DomainSpec& domain = DomainOf(table->name());
    for (int q = 0; q < questions; ++q) {
      ds.examples.push_back(gen.GenerateExample(table, domain));
    }
  }
  return ds;
}

/// One request slot of a workload's pool. Ad-hoc slots get a freshly
/// generated table every time they are sent.
struct Item {
  enum class Kind { kNamed, kRouted, kAdHoc };
  Kind kind = Kind::kNamed;
  const data::Example* example = nullptr;  // null for kAdHoc
  bool large = false;
};

const char* KindName(Item::Kind kind) {
  switch (kind) {
    case Item::Kind::kNamed: return "named";
    case Item::Kind::kRouted: return "routed";
    case Item::Kind::kAdHoc: return "adhoc";
  }
  return "?";
}

/// Everything set-up produces: the trained pipeline and the workload.
struct World {
  std::unique_ptr<core::NlidbPipeline> pipeline;
  std::vector<std::unique_ptr<data::Dataset>> datasets;  // owns examples
  std::vector<Item> pool;
  std::unique_ptr<data::WikiSqlGenerator> fresh;  // ad-hoc table source
  double train_s = 0.0;
  double register_s = 0.0;
  int registered = 0;
};

/// A request ready to send: the example it asks (owned here for ad-hoc
/// slots) and the pool slot it came from.
struct Prepared {
  size_t slot = 0;
  const Item* item = nullptr;
  data::Example owned;  // ad-hoc slots only

  const data::Example& example() const {
    return item->kind == Item::Kind::kAdHoc ? owned : *item->example;
  }

  core::QueryRequest Request() const {
    core::QueryRequest request;
    request.tokens = example().tokens;
    request.collect_timings = false;
    switch (item->kind) {
      case Item::Kind::kNamed:
        request.schema_ref = core::SchemaRef::Name(example().table->name());
        break;
      case Item::Kind::kRouted:
        request.schema_ref = core::SchemaRef::Route();
        break;
      case Item::Kind::kAdHoc:
        request.schema_ref = core::SchemaRef::Table(example().table.get());
        break;
    }
    return request;
  }
};

Prepared Prepare(World& world, size_t slot) {
  Prepared p;
  p.slot = slot;
  p.item = &world.pool[slot];
  if (p.item->kind == Item::Kind::kAdHoc) {
    std::shared_ptr<const sql::Table> table = world.fresh->GenerateTable(0);
    p.owned = world.fresh->GenerateExample(table, DomainOf(table->name()));
  }
  return p;
}

std::unique_ptr<World> Setup(const std::string& workload, uint64_t seed) {
  auto world = std::make_unique<World>();
  auto provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*provider);

  data::GeneratorConfig gc;
  gc.num_tables = kTrainTables;
  gc.questions_per_table = kTrainQuestions;
  gc.seed = kTrainSeed;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  core::ModelConfig config = core::ModelConfig::Small();
  config.word_dim = provider->dim();
  config.seq2seq_epochs = kSeq2SeqEpochs;
  config.num_threads = kComputeThreads;
  world->pipeline = std::make_unique<core::NlidbPipeline>(config, provider);
  const uint64_t train_start = NowNs();
  world->pipeline->Train(splits.train);
  world->train_s = static_cast<double>(NowNs() - train_start) / 1e9;

  Rng rng(Mix(seed, 1));
  std::vector<const data::Dataset*> registered;
  if (workload == "catalog_large") {
    world->datasets.push_back(std::make_unique<data::Dataset>(
        GenerateTables(Mix(seed, 2), 0, kCatalogSmallTables, 12, 1)));
    world->datasets.push_back(std::make_unique<data::Dataset>(
        GenerateTables(Mix(seed, 3), kCatalogSmallTables, kCatalogLargeTables,
                       kLargeRows, kLargeQuestions)));
    const data::Dataset& small = *world->datasets[0];
    const data::Dataset& large = *world->datasets[1];
    registered = {&small, &large};
    std::vector<size_t> order(small.examples.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    for (int i = 0; i < kCatalogRouted; ++i) {
      world->pool.push_back(
          {Item::Kind::kRouted, &small.examples[order[i]], false});
    }
    for (const data::Example& ex : large.examples) {
      world->pool.push_back({Item::Kind::kNamed, &ex, true});
    }
    for (int i = 0; i < kCatalogAdHoc; ++i) {
      world->pool.push_back({Item::Kind::kAdHoc, nullptr, false});
    }
    data::GeneratorConfig fc;
    fc.seed = Mix(seed, 4);
    world->fresh =
        std::make_unique<data::WikiSqlGenerator>(fc, data::TrainDomains());
  } else {
    world->datasets.push_back(std::make_unique<data::Dataset>(
        GenerateTables(Mix(seed, 2), 0, kInteractiveTables, 12,
                       kInteractiveQuestions)));
    registered = {world->datasets[0].get()};
    for (const data::Example& ex : world->datasets[0]->examples) {
      world->pool.push_back({Item::Kind::kNamed, &ex, false});
    }
  }
  rng.Shuffle(world->pool);

  const uint64_t reg_start = NowNs();
  for (const data::Dataset* ds : registered) {
    for (const auto& table : ds->tables) {
      StatusOr<schema::TableId> id =
          world->pipeline->mutable_registry().Register(table);
      if (!id.ok()) {
        std::fprintf(stderr, "register failed: %s\n",
                     id.status().ToString().c_str());
        std::exit(3);
      }
      ++world->registered;
    }
  }
  world->register_s = static_cast<double>(NowNs() - reg_start) / 1e9;

  // Warm-up: a few requests of every kind.
  for (size_t slot = 0; slot < std::min<size_t>(16, world->pool.size());
       ++slot) {
    Prepared p = Prepare(*world, slot);
    (void)world->pipeline->Query(p.Request());
  }
  return world;
}

// ---------------------------------------------------------------------
// Output comparison
// ---------------------------------------------------------------------

/// Everything a request's answer consists of, bit for bit: status,
/// resolved table, q^a, s^a tokens, translate_score bits, recovery and
/// execution statuses and rows.
std::string Signature(const StatusOr<core::QueryResult>& result) {
  if (!result.ok()) return "error|" + result.status().ToString();
  const core::QueryResult& r = result.value();
  std::string s = r.table_name + "|";
  for (const std::string& t : r.annotated_question) s += t + " ";
  s += "|";
  for (const std::string& t : r.annotated_sql) s += t + " ";
  uint32_t bits = 0;
  std::memcpy(&bits, &r.translate_score, sizeof(bits));
  char hex[16];
  std::snprintf(hex, sizeof(hex), "|%08x|", bits);
  s += hex;
  s += r.recovery_status.ToString() + "|" + r.execution_status.ToString() +
       "|";
  if (r.rows.has_value()) {
    for (const sql::Value& v : *r.rows) s += v.ToString() + ";";
  } else {
    s += "(no rows)";
  }
  return s;
}

/// True when the executed rows equal the gold query's rows on the gold
/// table (execution accuracy).
bool ExecCorrect(const StatusOr<core::QueryResult>& result,
                 const data::Example& example) {
  if (!result.ok() || !result->rows.has_value()) return false;
  StatusOr<std::vector<sql::Value>> gold =
      sql::Execute(example.query, *example.table);
  return gold.ok() && sql::ResultsEqual(*result->rows, gold.value());
}

struct Gates {
  bool ok = true;
  int checked = 0;
  std::vector<std::string> messages;

  void Fail(std::string message) {
    ok = false;
    if (messages.size() < 8) messages.push_back(std::move(message));
  }
};

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

struct CounterSnapshot {
  int64_t decode_steps = 0;
  int64_t gemm_calls = 0;
  int64_t rows_scanned = 0;
  int64_t stats_computed = 0;
  int64_t stats_hits = 0;
  int64_t batch_ticks = 0;
  int64_t batch_rows = 0;
  int64_t shed = 0;
  int64_t rejected = 0;

  static CounterSnapshot Take() {
    auto& reg = metrics::MetricsRegistry::Global();
    CounterSnapshot s;
    s.decode_steps = reg.GetCounter("seq2seq.decode_steps").Value();
    s.gemm_calls = reg.GetCounter("gemm.dispatch.avx2").Value() +
                   reg.GetCounter("gemm.dispatch.base").Value();
    s.rows_scanned = reg.GetCounter("sql.rows_scanned").Value();
    s.stats_computed = reg.GetCounter("schema.stats_computed").Value();
    s.stats_hits = reg.GetCounter("schema.stats_hits").Value();
    s.batch_ticks = reg.GetCounter("serving.batch.ticks").Value();
    s.batch_rows = reg.GetCounter("serving.batch.rows").Value();
    s.shed = reg.GetCounter("serving.shed").Value();
    s.rejected = reg.GetCounter("serving.rejected_queue_full").Value() +
                 reg.GetCounter("serving.rejected_shutdown").Value();
    return s;
  }

  void AddDelta(const CounterSnapshot& before, const CounterSnapshot& after) {
    decode_steps += after.decode_steps - before.decode_steps;
    gemm_calls += after.gemm_calls - before.gemm_calls;
    rows_scanned += after.rows_scanned - before.rows_scanned;
    stats_computed += after.stats_computed - before.stats_computed;
    stats_hits += after.stats_hits - before.stats_hits;
    batch_ticks += after.batch_ticks - before.batch_ticks;
    batch_rows += after.batch_rows - before.batch_rows;
    shed += after.shed - before.shed;
    rejected += after.rejected - before.rejected;
  }
};

// ---------------------------------------------------------------------
// JSON writer (numbers, strings and arrays of integers only)
// ---------------------------------------------------------------------

class Json {
 public:
  Json& Key(const std::string& key) {
    Sep();
    out_ << '"' << key << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    return *this;
  }
  Json& Int(int64_t v) {
    Sep();
    out_ << v;
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  template <typename T>
  Json& Ints(const std::vector<T>& values) {
    Begin('[');
    for (T v : values) Int(static_cast<int64_t>(v));
    return End(']');
  }
  Json& Begin(char c) {
    Sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& End(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

void WriteCounters(Json& json, const CounterSnapshot& c) {
  json.Begin('{');
  json.Key("decode_steps").Int(c.decode_steps);
  json.Key("gemm_calls").Int(c.gemm_calls);
  json.Key("rows_scanned").Int(c.rows_scanned);
  json.Key("stats_computed").Int(c.stats_computed);
  json.Key("stats_hits").Int(c.stats_hits);
  json.Key("batch_ticks").Int(c.batch_ticks);
  json.Key("batch_rows").Int(c.batch_rows);
  json.Key("shed").Int(c.shed);
  json.Key("rejected").Int(c.rejected);
  json.End('}');
}

// ---------------------------------------------------------------------
// Closed loop: one client, next request after the previous answer.
// ---------------------------------------------------------------------

struct ClosedRun {
  std::vector<uint64_t> latency_ns;
  int64_t sent = 0;
  int64_t failed = 0;
  uint64_t busy_ns = 0;
  int exec_correct = 0;
  int exec_total = 0;
  std::vector<std::string> signature;  // first-pass answer per pool slot
};

/// Keeps the calling thread on whichever of its CPUs currently runs a
/// fixed SIMD loop fastest, and gives the thread all of its CPUs back when
/// destroyed. On a shared four-core VM each CPU was slowed by up to 1.5x,
/// on and off for tenths of a second at a time, by work outside the VM,
/// while some other CPU mostly ran at full speed.
class FastestCpu {
 public:
  FastestCpu() {
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~FastestCpu() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  FastestCpu(const FastestCpu&) = delete;
  FastestCpu& operator=(const FastestCpu&) = delete;

  /// Times the probe on every CPU and stays on the fastest.
  void Choose() {
    if (cpus_.size() < 2) return;
    int best = cpus_[0];
    uint64_t best_ns = UINT64_MAX;
    for (int cpu : cpus_) {
      Pin(cpu);
      const uint64_t ns = Probe();
      if (ns < best_ns) {
        best_ns = ns;
        best = cpu;
      }
    }
    Pin(best);
  }

 private:
  static void Pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  /// 100k float multiply-adds on an L1-resident array.
  uint64_t Probe() {
    const uint64_t t0 = NowNs();
    for (int r = 0; r < 400; ++r) {
      for (size_t j = 0; j < probe_.size(); ++j) {
        probe_[j] = probe_[j] * 0.999f + 0.001f;
      }
    }
    const uint64_t ns = NowNs() - t0;
    sink_ = probe_[static_cast<size_t>(ns) % probe_.size()];
    return ns;
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::vector<float> probe_ = std::vector<float>(256, 1.0f);
  volatile float sink_ = 0.0f;
};

/// Sends pool slots in order, cycling, for `seconds` and at least until
/// every slot was sent `min_passes` times (exec_acc covers the first pass;
/// perfbench/stats.py takes each slot's fastest pass). Every few requests
/// the thread moves to the CPU that is fastest at that moment.
ClosedRun RunClosed(World& world, double seconds, size_t min_passes) {
  ClosedRun run;
  const size_t n = world.pool.size();
  run.signature.resize(n);
  FastestCpu cpu;
  const uint64_t stop = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; i < min_passes * n || NowNs() < stop; ++i) {
    if (i % 4 == 0) cpu.Choose();
    Prepared p = Prepare(world, i % n);
    const core::QueryRequest request = p.Request();
    const uint64_t t0 = NowNs();
    StatusOr<core::QueryResult> result = world.pipeline->Query(request);
    const uint64_t dt = NowNs() - t0;
    run.latency_ns.push_back(dt);
    run.busy_ns += dt;
    ++run.sent;
    if (!result.ok()) ++run.failed;
    if (i < n) {
      run.signature[i] = Signature(result);
      ++run.exec_total;
      if (ExecCorrect(result, p.example())) ++run.exec_correct;
    }
  }
  return run;
}

// ---------------------------------------------------------------------
// Open loop: Poisson arrivals from one generator thread through the
// serving engine. Latency runs from when a request was due, so a stall
// is charged to every request it delays.
// ---------------------------------------------------------------------

struct OpenRun {
  double offered_qps = 0.0;
  double scheduled_s = 0.0;
  std::vector<uint64_t> due_ns;      // offset from schedule start
  std::vector<uint64_t> lag_ns;      // submit - due
  std::vector<uint64_t> answered_due_ns;  // due, answered requests only
  std::vector<uint64_t> latency_ns;       // resolution - due, answered
  std::vector<uint64_t> queue_wait_ns;
  std::vector<uint64_t> service_ns;  // e2e - queue wait
  std::vector<uint64_t> done_ns;     // resolution, offset from start
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t errors = 0;
  CounterSnapshot counters;
};

/// Arrival offsets of `n` Poisson arrivals, rescaled so the last one is
/// due exactly at `seconds`: the offered rate is then exact per run and
/// only the spacing is random.
std::vector<uint64_t> PoissonSchedule(int n, double seconds, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> t(static_cast<size_t>(n));
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = static_cast<double>(rng.NextFloat());
    acc += -std::log(1.0 - u);
    t[static_cast<size_t>(i)] = acc;
  }
  std::vector<uint64_t> due(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    due[static_cast<size_t>(i)] =
        static_cast<uint64_t>(t[static_cast<size_t>(i)] / acc * seconds * 1e9);
  }
  return due;
}

OpenRun RunOpen(World& world, double qps, double seconds, uint64_t seed,
                const std::vector<std::string>& reference, size_t first_slot,
                Gates& gates) {
  OpenRun run;
  run.offered_qps = qps;
  run.scheduled_s = seconds;
  const int n = std::max(1, static_cast<int>(std::lround(qps * seconds)));
  run.due_ns = PoissonSchedule(n, seconds, seed);

  std::vector<size_t> slots;
  for (size_t k = 0; slots.size() < static_cast<size_t>(n); ++k) {
    const size_t slot = (first_slot + k) % world.pool.size();
    if (world.pool[slot].kind != Item::Kind::kAdHoc) slots.push_back(slot);
  }
  std::vector<core::QueryRequest> requests;
  requests.reserve(slots.size());
  for (size_t slot : slots) requests.push_back(Prepare(world, slot).Request());

  serving::ServingOptions options;
  options.num_workers = kServeWorkers;
  options.queue_capacity = kServeQueueCapacity;
  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<serving::ServedResult> served(slots.size());
  std::vector<uint64_t> submit_ns(slots.size());
  uint64_t start = 0;
  {
    serving::ServingEngine engine(*world.pipeline, options);
    std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
    tickets.reserve(slots.size());
    start = NowNs() + 1000000;  // first arrival 1 ms after set-up
    for (int i = 0; i < n; ++i) {
      const uint64_t at = start + run.due_ns[static_cast<size_t>(i)];
      // Sleep, not spin: the generator must leave its core to the engine.
      const uint64_t now = NowNs();
      if (at > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
      }
      submit_ns[static_cast<size_t>(i)] = NowNs();
      tickets.push_back(
          engine.Submit(std::move(requests[static_cast<size_t>(i)])));
    }
    for (size_t i = 0; i < tickets.size(); ++i) served[i] = tickets[i]->Take();
  }
  run.counters.AddDelta(before, CounterSnapshot::Take());

  for (size_t i = 0; i < served.size(); ++i) {
    const serving::ServedResult& s = served[i];
    const uint64_t due = start + run.due_ns[i];
    ++run.sent;
    run.lag_ns.push_back(submit_ns[i] - due);
    const uint64_t done = submit_ns[i] + s.e2e_ns;
    run.done_ns.push_back(done - start);
    if (!s.status.ok()) {
      const StatusCode code = s.status.code();
      if (code != StatusCode::kDeadlineExceeded &&
          code != StatusCode::kUnavailable) {
        ++run.errors;  // shed and rejected come from the counters
      }
      continue;
    }
    ++run.answered;
    run.answered_due_ns.push_back(run.due_ns[i]);
    run.latency_ns.push_back(done - due);
    run.queue_wait_ns.push_back(s.queue_wait_ns);
    run.service_ns.push_back(s.e2e_ns - s.queue_wait_ns);
    const size_t slot = slots[i];
    if (!reference[slot].empty()) {
      ++gates.checked;
      if (Signature(StatusOr<core::QueryResult>(s.result)) !=
          reference[slot]) {
        gates.Fail("serving: slot " + std::to_string(slot) +
                   " differs from sequential Query()");
      }
    }
  }
  return run;
}

void WriteOpen(Json& json, const OpenRun& run) {
  json.Begin('{');
  json.Key("offered_qps").Num(run.offered_qps);
  json.Key("scheduled_s").Num(run.scheduled_s);
  json.Key("sent").Int(run.sent);
  json.Key("answered").Int(run.answered);
  json.Key("errors").Int(run.errors);
  json.Key("due_ns").Ints(run.due_ns);
  json.Key("done_ns").Ints(run.done_ns);
  json.Key("lag_ns").Ints(run.lag_ns);
  json.Key("answered_due_ns").Ints(run.answered_due_ns);
  json.Key("latency_ns").Ints(run.latency_ns);
  json.Key("queue_wait_ns").Ints(run.queue_wait_ns);
  json.Key("service_ns").Ints(run.service_ns);
  json.Key("counters");
  WriteCounters(json, run.counters);
  json.End('}');
}

// ---------------------------------------------------------------------
// Traced decomposition: the public calls Query() makes, one span each.
// ---------------------------------------------------------------------

struct Span {
  int64_t request = 0;
  int id = 0;
  int parent = 0;  // 0 = root
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its id.
  int Open(const char* name) {
    Span s;
    s.request = request_;
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }
  void Close() {
    spans_[static_cast<size_t>(stack_.back() - 1)].end_ns = NowNs();
    stack_.pop_back();
  }
  void set_request(int64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "request\tid\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
      out << s.request << '\t' << s.id << '\t' << s.parent << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int64_t request_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.Open(name);
  }
  ~Scope() { tracer_.Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

struct TracedRun {
  int64_t requests = 0;
  int64_t recover_calls = 0;
  int64_t recover_failures = 0;
  std::vector<uint64_t> untraced_ns;  // Query() of the same requests
  std::vector<std::string> kinds;     // per traced request
  CounterSnapshot counters;           // span trees only, probes excluded
};

/// Runs `p` as the sequence of public calls Query() makes, one span per
/// call under a "query" root, and returns the result assembled the way
/// Query() assembles it. Sub-layer probes follow, outside the tree.
StatusOr<core::QueryResult> Decomposed(const core::NlidbPipeline& pipeline,
                                       const core::QueryRequest& request,
                                       Tracer& tracer, TracedRun& run) {
  const CounterSnapshot before = CounterSnapshot::Take();
  core::QueryResult result;
  result.tokens = request.tokens;
  const sql::Table* table = nullptr;
  Status failure = Status::Ok();
  {
    Scope root(tracer, "query");
    {
      Scope s(tracer, "schema.resolve");
      StatusOr<schema::Resolution> resolution =
          pipeline.registry().Resolve(request.schema_ref, result.tokens);
      if (resolution.ok()) {
        table = resolution->table;
        result.table_id = resolution->id;
        result.table_name = table->name();
        result.routing = std::move(resolution->candidates);
      } else {
        failure = resolution.status();
      }
    }
    if (failure.ok()) {
      Scope s(tracer, "core.annotate");
      StatusOr<core::Annotation> annotation =
          pipeline.Annotate(result.tokens, *table);
      if (annotation.ok()) {
        result.annotation = std::move(annotation).value();
      } else {
        failure = annotation.status();
      }
    }
    if (failure.ok()) {
      Scope s(tracer, "core.build_qa");
      result.annotated_question =
          core::BuildAnnotatedQuestion(result.tokens, result.annotation,
                                       table->schema(),
                                       pipeline.annotation_options());
    }
    if (failure.ok()) {
      Scope s(tracer, "core.decode");
      StatusOr<core::Seq2SeqTranslator::Decoded> decoded =
          pipeline.translator().Decode(result.annotated_question);
      if (decoded.ok()) {
        result.annotated_sql = std::move(decoded->tokens);
        result.translate_score = decoded->score;
        result.degraded_greedy_decode = decoded->used_greedy_fallback;
      } else {
        failure = decoded.status();
      }
    }
    if (failure.ok()) {
      Scope s(tracer, "core.recover");
      ++run.recover_calls;
      StatusOr<sql::SelectQuery> recovered = core::RecoverSql(
          result.annotated_sql, result.annotation, table->schema());
      if (recovered.ok()) {
        result.query = std::move(recovered).value();
      } else {
        result.recovery_status = recovered.status();
        ++run.recover_failures;
      }
    }
    if (failure.ok() && result.query.has_value()) {
      Scope s(tracer, "sql.execute");
      StatusOr<std::vector<sql::Value>> rows =
          sql::Execute(*result.query, *table);
      if (rows.ok()) {
        result.rows = std::move(rows).value();
      } else {
        result.execution_status = rows.status();
      }
    }
  }
  run.counters.AddDelta(before, CounterSnapshot::Take());
  ++run.requests;
  if (!failure.ok()) return failure;

  // Sub-layer probes on the same inputs, outside the request's tree.
  const schema::SchemaRegistry& registry = pipeline.registry();
  const schema::TableStatsEntry* entry = nullptr;
  {
    Scope s(tracer, "probe.schema.entry_for");
    entry = &registry.EntryFor(*table);
  }
  {
    Scope s(tracer, "probe.core.exact_values");
    (void)core::ExactCellValueMatches(result.tokens, *table);
  }
  {
    Scope s(tracer, "probe.core.value_detect");
    (void)pipeline.value_detector().Detect(result.tokens, entry->stats);
  }
  {
    Scope s(tracer, "probe.core.column_mentions");
    (void)pipeline.annotator().DetectColumnMentions(result.tokens, *table);
  }
  return result;
}

/// Traces `p`, then checks the decomposition against an untraced
/// Query() of the same request, whose latency lands in
/// `run.untraced_ns`. Returns Query()'s answer.
StatusOr<core::QueryResult> TraceOne(World& world, const Prepared& p,
                                     Tracer& tracer, TracedRun& run,
                                     Gates& gates) {
  const core::QueryRequest request = p.Request();
  tracer.set_request(run.requests);
  run.kinds.push_back(std::string(KindName(p.item->kind)) +
                      (p.item->large ? "_large" : ""));
  StatusOr<core::QueryResult> traced =
      Decomposed(*world.pipeline, request, tracer, run);
  const uint64_t t0 = NowNs();
  StatusOr<core::QueryResult> direct = world.pipeline->Query(request);
  run.untraced_ns.push_back(NowNs() - t0);
  ++gates.checked;
  if (Signature(traced) != Signature(direct)) {
    gates.Fail("trace: decomposition of slot " + std::to_string(p.slot) +
               " differs from Query()");
  }
  return direct;
}

/// Recall@1 of the router over pool slots whose gold table is registered.
std::pair<int, int> RouteRecall(const World& world) {
  int hits = 0;
  int total = 0;
  const schema::SchemaRegistry& registry = world.pipeline->registry();
  for (const Item& item : world.pool) {
    if (item.kind == Item::Kind::kAdHoc) continue;
    std::vector<schema::RouteCandidate> top =
        registry.Route(item.example->tokens, 1);
    ++total;
    if (!top.empty() && top[0].name == item.example->table->name()) ++hits;
  }
  return {hits, total};
}

// ---------------------------------------------------------------------
// Machine header
// ---------------------------------------------------------------------

const char* TierName(gemm::Tier tier) {
  switch (tier) {
    case gemm::Tier::kAvx2: return "avx2";
    case gemm::Tier::kBase: return "base";
    case gemm::Tier::kAuto: return "auto";
  }
  return "?";
}

const char* DecodeModeName(core::DecodeMode mode) {
  switch (mode) {
    case core::DecodeMode::kReference: return "reference";
    case core::DecodeMode::kReferenceMasked: return "reference_masked";
    case core::DecodeMode::kFastUnmasked: return "fast_unmasked";
    case core::DecodeMode::kFast: return "fast";
  }
  return "?";
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  // Open-loop plan (--trace 1): nominal rate and length, then the slo
  // ladder, which stops at the first rung whose median latency already
  // exceeds slo_ms (such a rung cannot meet the limit on any higher
  // percentile).
  double open_qps = 0.0;
  double open_seconds = 0.0;
  std::vector<double> ladder;
  double rung_seconds = 0.0;
  double slo_ms = 0.0;
};

std::vector<double> ParseList(const std::string& csv) {
  std::vector<double> values;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) values.push_back(std::atof(item.c_str()));
  return values;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--open-qps") {
      args.open_qps = std::atof(value.c_str());
    } else if (key == "--open-seconds") {
      args.open_seconds = std::atof(value.c_str());
    } else if (key == "--ladder") {
      args.ladder = ParseList(value);
    } else if (key == "--rung-seconds") {
      args.rung_seconds = std::atof(value.c_str());
    } else if (key == "--slo-ms") {
      args.slo_ms = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  return (args.workload == "interactive" ||
          args.workload == "catalog_large") &&
         args.seconds > 0 && !args.out.empty() &&
         (!args.trace || (args.open_qps > 0 && args.open_seconds > 0));
}

int Run(const Args& args) {
  Gates gates;
  Json json;
  json.Begin('{');

  // Set-up, repeated; the last world is the one measured.
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<double> register_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const uint64_t t0 = NowNs();
    world = Setup(args.workload, args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    train_s.push_back(world->train_s);
    register_s.push_back(world->register_s);
  }
  metrics::MetricsRegistry::Global().ResetAll();
  core::NlidbPipeline& pipeline = *world->pipeline;

  json.Key("header").Begin('{');
  json.Key("workload").Str(args.workload);
  json.Key("seed").Int(static_cast<int64_t>(args.seed));
  json.Key("seconds").Num(args.seconds);
  json.Key("trace").Bool(args.trace);
  json.Key("nproc").Int(std::thread::hardware_concurrency());
  json.Key("build_type").Str(PERFBENCH_BUILD_TYPE);
  json.Key("gemm_tier").Str(TierName(gemm::ActiveTier()));
  json.Key("decode_mode")
      .Str(DecodeModeName(pipeline.translator().decode_mode()));
  json.Key("compute_threads").Int(pipeline.config().ResolveNumThreads());
  json.Key("registered_tables").Int(world->registered);
  json.Key("pool").Int(static_cast<int64_t>(world->pool.size()));
  json.End('}');
  json.Key("setup_s").Begin('[');
  for (double s : setup_s) json.Num(s);
  json.End(']');
  json.Key("train_s").Begin('[');
  for (double s : train_s) json.Num(s);
  json.End(']');
  json.Key("register_s").Begin('[');
  for (double s : register_s) json.Num(s);
  json.End(']');
  const double phase = args.trace ? args.seconds / 2 : args.seconds;
  ClosedRun run = RunClosed(*world, phase, args.trace ? 1 : kMinPasses);
  json.Key("closed").Begin('{');
  json.Key("sent").Int(run.sent);
  json.Key("failed").Int(run.failed);
  json.Key("busy_s").Num(static_cast<double>(run.busy_ns) / 1e9);
  json.Key("exec_correct").Int(run.exec_correct);
  json.Key("exec_total").Int(run.exec_total);
  json.Key("latency_ns").Ints(run.latency_ns);
  json.End('}');
  // First answers of the non-ad-hoc slots: requests asked again, served
  // through the engine or decomposed must reproduce them exactly.
  std::vector<std::string>& reference = run.signature;
  for (size_t i = 0; i < world->pool.size(); ++i) {
    if (world->pool[i].kind == Item::Kind::kAdHoc) reference[i].clear();
  }
  for (size_t i = 0, asked = 0; i < world->pool.size() && asked < 32; ++i) {
    if (reference[i].empty()) continue;
    ++asked;
    ++gates.checked;
    if (Signature(pipeline.Query(Prepare(*world, i).Request())) !=
        reference[i]) {
      gates.Fail("closed loop: slot " + std::to_string(i) +
                 " changed its answer when asked again");
    }
  }

  if (args.trace) {
    // Traced phase over the same pool order from the first slot.
    Tracer tracer;
    TracedRun traced;
    const uint64_t stop =
        NowNs() + static_cast<uint64_t>(args.seconds / 2 * 1e9);
    for (size_t i = 0; i == 0 || NowNs() < stop; ++i) {
      Prepared p = Prepare(*world, i % world->pool.size());
      (void)TraceOne(*world, p, tracer, traced, gates);
    }

    std::vector<OpenRun> runs;
    runs.push_back(RunOpen(*world, args.open_qps, args.open_seconds,
                           Mix(args.seed, 10), reference, 0, gates));
    size_t slot = 0;
    for (size_t r = 0; r < args.ladder.size(); ++r) {
      slot += static_cast<size_t>(runs.back().sent);
      runs.push_back(RunOpen(*world, args.ladder[r], args.rung_seconds,
                             Mix(args.seed, 11 + r), reference, slot, gates));
      std::vector<uint64_t> lat = runs.back().latency_ns;
      if (lat.empty()) break;
      std::nth_element(lat.begin(), lat.begin() + lat.size() / 2, lat.end());
      if (static_cast<double>(lat[lat.size() / 2]) > args.slo_ms * 1e6) break;
    }
    json.Key("open").Begin('[');
    for (const OpenRun& open : runs) WriteOpen(json, open);
    json.End(']');

    const std::pair<int, int> recall = RouteRecall(*world);
    json.Key("traced").Begin('{');
    json.Key("requests").Int(traced.requests);
    json.Key("recover_calls").Int(traced.recover_calls);
    json.Key("recover_failures").Int(traced.recover_failures);
    json.Key("route_hits").Int(recall.first);
    json.Key("route_total").Int(recall.second);
    json.Key("untraced_ns").Ints(traced.untraced_ns);
    json.Key("counters");
    WriteCounters(json, traced.counters);
    json.Key("kinds").Begin('[');
    for (const std::string& k : traced.kinds) json.Str(k);
    json.End(']');
    json.End('}');
    if (!tracer.Write(args.out + "/spans.tsv")) {
      gates.Fail("cannot write spans");
    }
  }

  json.Key("peak_rss_mb").Num(PeakRssMb());
  json.Key("gates").Begin('{');
  json.Key("ok").Bool(gates.ok);
  json.Key("checked").Int(gates.checked);
  json.Key("messages").Begin('[');
  for (const std::string& m : gates.messages) json.Str(m);
  json.End(']');
  json.End('}');
  json.End('}');

  std::ofstream out(args.out + "/result.json");
  out << json.str() << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s/result.json\n", args.out.c_str());
    return 3;
  }
  return gates.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace nlidb

int main(int argc, char** argv) {
  nlidb::perfbench::Args args;
  if (!nlidb::perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "interactive|catalog_large --seed N --seconds S --trace 0|1 "
                 "--out DIR [--open-qps Q --open-seconds T --ladder Q1,Q2,.. "
                 "--rung-seconds T --slo-ms L]\n");
    return 2;
  }
  return nlidb::perfbench::Run(args);
}
