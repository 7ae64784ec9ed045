// servebench — one benchmark for the PP-ANNS serving path.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --server-bin PATH/ppanns_shard_server --work-dir DIR
//
// Builds a SIFT-like package (n = 20k, d = 128, 4 HNSW shards), serves it
// in-process or behind two real ppanns_shard_server processes on loopback,
// drives closed-loop search clients (plus an open-loop writer on the churn
// workload) for S seconds, checks the answers, and prints one JSON result
// line last on stdout. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics from spans and side passes and writes the
// spans to DIR/trace-<workload>-<seed>.jsonl. servebench/README.md
// describes every metric and which layer and workload it belongs to.
//
// Exit codes: 0 = all correctness gates passed, 1 = a gate failed (the
// result line says "correct": false), 2 = bad arguments or a set-up error,
// 3 = a phase exceeded its deadline.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/comparison_heap.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/sharded_database.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "index/brute_force.h"
#include "linalg/kernels.h"
#include "net/remote_shard.h"
#include "net/wire.h"
#include "proc.h"
#include "trace.h"

namespace {

using namespace ppanns;
using namespace servebench;

// ---- Fixed shape of the benchmark -------------------------------------------

constexpr std::size_t kBaseVectors = 20000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kK = 10;
constexpr std::size_t kKPrime = 40;
constexpr std::size_t kClients = 2;
constexpr std::size_t kPoolSize = 2;
constexpr std::size_t kCacheCapacity = 256;
constexpr double kZipfSkew = 1.1;
constexpr int kSetups = 3;
/// Open-loop write rate of the write phase the read-only workloads run after
/// their read window, for half the window's length.
constexpr double kWritePhaseRate = 100.0;
/// Recall gate; the package reaches ~0.97 at k' = 4k.
constexpr double kRecallFloor = 0.90;
/// Tokens the side passes serialize and replay (all tokens get timed scans).
constexpr std::size_t kSideSample = 256;

struct WorkloadSpec {
  const char* name;
  bool remote;        ///< two shard-server processes behind a socket gather
  bool zipf;          ///< Zipf(1.1) token choice instead of uniform
  bool cache;         ///< gather result cache on
  std::size_t tokens;
  double write_rate;  ///< open-loop writes/s inside the window; 0 = none
  double limit_ms;    ///< goodput latency limit for one search
};

const WorkloadSpec kWorkloads[] = {
    {"inproc_uniform", false, false, false, 1000, 0.0, 5.0},
    {"loopback_uniform", true, false, false, 1000, 0.0, 25.0},
    {"loopback_zipf_churn", true, true, true, 1024, 50.0, 50.0},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const char* key :
       {"workload", "seed", "seconds", "trace", "server-bin", "work-dir"}) {
    if (kv.count(key) == 0) {
      std::fprintf(stderr, "servebench: missing --%s\n", key);
      return false;
    }
  }
  opt->workload = kv["workload"];
  opt->seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  opt->seconds = std::strtod(kv["seconds"].c_str(), nullptr);
  opt->trace = kv["trace"] == "1";
  opt->server_bin = kv["server-bin"];
  opt->work_dir = kv["work-dir"];
  return opt->seconds > 0.0 && (kv["trace"] == "0" || kv["trace"] == "1");
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::fflush(stderr);
  ChildRegistry::Get().KillAll();
  _exit(2);
}

/// P(i) proportional to (i + 1)^-s over [0, n); s = 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double skew) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -skew);
      cdf_[i] = total;
    }
  }
  std::size_t Pick(Rng& rng) const {
    const double u = rng.Uniform(0.0, cdf_.back());
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- Span plumbing ----------------------------------------------------------

/// Which client a token object belongs to: every client searches its own
/// copy of the token set, so a token's address names the client and the
/// token index, and the client's current request id is the parent of any
/// transport span the search causes.
class ClientSlots {
 public:
  struct Slot {
    std::vector<QueryToken> tokens;
    std::atomic<std::uint64_t> request{0};
  };

  ClientSlots(const std::vector<QueryToken>& tokens, std::size_t clients) {
    for (std::size_t c = 0; c < clients; ++c) {
      slots_.push_back(std::make_unique<Slot>());
      slots_.back()->tokens = tokens;
    }
  }

  Slot& slot(std::size_t c) { return *slots_[c]; }

  bool Find(const QueryToken* token, std::uint64_t* request,
            std::int32_t* index) const {
    for (const auto& s : slots_) {
      const QueryToken* begin = s->tokens.data();
      if (token >= begin && token < begin + s->tokens.size()) {
        *request = s->request.load(std::memory_order_acquire);
        *index = static_cast<std::int32_t>(token - begin);
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<Slot>> slots_;
};

std::atomic<std::size_t> g_failed_transport_calls{0};

/// Bench-side timing decorator around one RemoteShardClient: records a
/// transport.filter span per call while tracing is on.
class TracedTransport final : public ShardTransport {
 public:
  TracedTransport(std::unique_ptr<ShardTransport> inner, std::uint32_t shard,
                  const ClientSlots* slots)
      : inner_(std::move(inner)), shard_(shard), slots_(slots) {}

  Status Filter(const QueryToken& token, const ShardFilterOptions& options,
                SearchContext* ctx, ShardFilterResult* out) const override {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) {
      const Status st = inner_->Filter(token, options, ctx, out);
      if (!st.ok()) g_failed_transport_calls.fetch_add(1);
      return st;
    }
    Span span;
    span.name = "transport.filter";
    span.shard = static_cast<std::int32_t>(shard_);
    slots_->Find(&token, &span.request, &span.token);
    span.parent = span.request;
    span.id = tracer.NextId();
    span.start_ns = Tracer::NowNs();
    const Status st = inner_->Filter(token, options, ctx, out);
    span.end_ns = Tracer::NowNs();
    span.ok = st.ok();
    if (!st.ok()) g_failed_transport_calls.fetch_add(1);
    tracer.Record(span);
    return st;
  }
  bool Healthy() const override { return inner_->Healthy(); }
  bool remote() const override { return inner_->remote(); }

 private:
  std::unique_ptr<ShardTransport> inner_;
  std::uint32_t shard_;
  const ClientSlots* slots_;
};

// ---- The serving stack ------------------------------------------------------

struct Stack {
  std::unique_ptr<PpannsService> svc;
  std::vector<std::shared_ptr<RpcChannelPool>> pools;
  std::vector<std::unique_ptr<ServerProcess>> servers;

  void Stop() {
    svc.reset();
    pools.clear();
    servers.clear();
  }
  std::vector<std::string> endpoints() const {
    std::vector<std::string> out;
    for (const auto& s : servers) out.push_back(s->endpoint());
    return out;
  }
};

/// One full set-up: owner keys, encryption and sharded index, then serving
/// ready (in-process facade, or package file + two servers listening + the
/// gather connected). Returns its wall seconds.
double SetUp(const WorkloadSpec& w, const Options& opt, const FloatMatrix& base,
             const PpannsParams& params, const std::string& db_path,
             Stack* stack, std::optional<DataOwner>* owner) {
  const Clock::time_point t0 = Clock::now();
  auto created = DataOwner::Create(base.dim(), params);
  if (!created.ok()) Die("DataOwner::Create: " + created.status().ToString());
  owner->emplace(std::move(*created));
  if (!w.remote) {
    stack->svc = std::make_unique<PpannsService>(
        ShardedCloudServer((*owner)->EncryptAndIndexSharded(base)));
    return SecondsSince(t0);
  }
  {
    BinaryWriter out;
    (*owner)->EncryptAndIndexSharded(base).Serialize(&out);
    const Status st = WriteFile(db_path, out.buffer());
    if (!st.ok()) Die("write package: " + st.ToString());
  }
  for (const char* shards : {"0,1", "2,3"}) {
    auto server = std::make_unique<ServerProcess>();
    std::string error;
    if (!server->Start(opt.server_bin, db_path, shards, &error)) {
      Die("shard server: " + error);
    }
    stack->servers.push_back(std::move(server));
  }
  ConnectOptions connect;
  connect.pool_size = kPoolSize;
  auto cluster = ConnectCluster(stack->endpoints(), connect);
  if (!cluster.ok()) Die("ConnectCluster: " + cluster.status().ToString());
  stack->pools = cluster->pools;
  stack->svc = std::make_unique<PpannsService>(std::move(cluster->server));
  return SecondsSince(t0);
}

/// The traced gather: the same assembly ConnectCluster performs, from its
/// public parts, with every filter transport wrapped in TracedTransport.
std::unique_ptr<PpannsService> ConnectTraced(
    const std::vector<std::string>& endpoints, const ClientSlots* slots) {
  auto fence = std::make_shared<std::atomic<std::uint64_t>>(0);
  RpcChannelPool::Options pool_options;
  pool_options.pool_size = kPoolSize;
  pool_options.epoch_fence = fence;
  std::vector<std::shared_ptr<RpcChannelPool>> pools;
  for (const std::string& endpoint : endpoints) {
    auto pool = RpcChannelPool::Connect(endpoint, pool_options);
    if (!pool.ok()) Die("traced connect: " + pool.status().ToString());
    pools.push_back(std::move(*pool));
  }
  const HelloOkMessage& info = pools.front()->server_info();
  fence->store(info.state_version);
  ShardedCloudServer::RemoteTopology topology;
  topology.num_shards = info.num_shards;
  topology.num_replicas = info.num_replicas;
  topology.dim = static_cast<std::size_t>(info.dim);
  topology.index_kind = static_cast<IndexKind>(info.index_kind);
  topology.size = static_cast<std::size_t>(info.size);
  topology.capacity = static_cast<std::size_t>(info.capacity);
  topology.storage_bytes = static_cast<std::size_t>(info.storage_bytes);
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
      info.num_shards);
  for (std::uint32_t s = 0; s < info.num_shards; ++s) {
    std::shared_ptr<RpcChannelPool> owner;
    for (const auto& pool : pools) {
      const auto& served = pool->server_info().served_shards;
      if (std::find(served.begin(), served.end(), s) != served.end()) {
        owner = pool;
        break;
      }
    }
    if (owner == nullptr) Die("traced connect: shard without endpoint");
    for (std::uint32_t r = 0; r < info.num_replicas; ++r) {
      transports[s].push_back(std::make_unique<TracedTransport>(
          std::make_unique<RemoteShardClient>(owner, s, r), s, slots));
    }
  }
  ShardedCloudServer server(topology, std::move(transports));
  std::vector<std::unique_ptr<MutationTransport>> mutators;
  for (const auto& pool : pools) {
    mutators.push_back(std::make_unique<RemoteMutationClient>(pool));
  }
  server.AttachMutationTransports(std::move(mutators));
  server.AttachRemoteEpochFence(fence);
  return std::make_unique<PpannsService>(std::move(server));
}

std::unique_ptr<PpannsService> LoadLocal(const std::string& db_path) {
  auto blob = ReadFile(db_path);
  if (!blob.ok()) Die("read package: " + blob.status().ToString());
  BinaryReader reader(*blob);
  auto db = ShardedEncryptedDatabase::Deserialize(&reader);
  if (!db.ok()) Die("load package: " + db.status().ToString());
  return std::make_unique<PpannsService>(ShardedCloudServer(std::move(*db)));
}

// ---- Load phases ------------------------------------------------------------

struct SearchSample {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  bool ok = false;
  bool hit = false;
  double refine_s = 0.0;
  std::size_t dce_comparisons = 0;
  double ms() const { return 1e-6 * static_cast<double>(end_ns - start_ns); }
};

struct WriteSample {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
  bool insert = false;
  double from_due_ms() const {
    return 1e-6 * static_cast<double>(end_ns - due_ns);
  }
  double call_ms() const {
    return 1e-6 * static_cast<double>(end_ns - start_ns);
  }
};

/// In-process searches and mutations must not overlap (the facade's
/// mutation contract); a shard server enforces the same with its serve
/// lock. Searches hold it shared, the writer exclusive; `write_pending`
/// keeps a closed-loop reader stream from starving the writer.
struct WriteGate {
  std::shared_mutex mu;
  std::atomic<bool> write_pending{false};
};

/// The writer's view of the database: the pre-encrypted insert pool and the
/// ids currently live.
struct WriteState {
  const std::vector<EncryptedVector>* inserts = nullptr;
  std::size_t next_insert = 0;
  std::vector<VectorId> live;
  Rng rng{0};
};

struct PhaseSpec {
  double seconds = 0.0;
  std::size_t clients = 0;
  bool zipf = false;
  double write_rate = 0.0;  ///< open-loop writes/s; 0 = no writer
  WriteGate* gate = nullptr;
  bool traced = false;  ///< record spans during this phase
  std::uint64_t seed = 0;
};

struct PhaseResult {
  std::vector<SearchSample> searches;
  std::vector<WriteSample> writes;
  double wall_s = 0.0;
  double serving_cpu_s = 0.0;  ///< bench process + shard servers
  double loopback_bytes = 0.0;  ///< 0 without servers
  ResultCacheStats cache_before{};
  ResultCacheStats cache_after{};
};

struct ServingCounters {
  double cpu_s = 0.0;
  double tx_bytes = 0.0;
};

ServingCounters ReadServing(const Stack& stack) {
  ServingCounters c;
  c.cpu_s = SelfCpuSeconds();
  for (const auto& s : stack.servers) c.cpu_s += ChildCpuSeconds(s->pid());
  if (!stack.servers.empty()) c.tx_bytes = LoopbackTxBytes();
  return c;
}

void DoWrite(PpannsService& svc, WriteState* ws, WriteGate* gate,
             WriteSample* sample) {
  // Two inserts per delete: inserts (~1 ms) and deletes (~5 ms) form two
  // latency modes, and an even mix would put the median on the boundary
  // between them, where it flips from seed to seed.
  const bool insert = ws->rng.NextUint64() % 3 != 0 &&
                      ws->next_insert < ws->inserts->size();
  std::size_t victim_slot = 0;
  if (!insert) {
    victim_slot = static_cast<std::size_t>(
        ws->rng.UniformInt(0, static_cast<std::int64_t>(ws->live.size()) - 1));
  }
  sample->insert = insert;
  std::unique_lock<std::shared_mutex> lock;
  if (gate != nullptr) {
    gate->write_pending.store(true, std::memory_order_release);
    lock = std::unique_lock<std::shared_mutex>(gate->mu);
    gate->write_pending.store(false, std::memory_order_release);
  }
  sample->start_ns = Tracer::NowNs();
  bool ok = false;
  if (insert) {
    auto id = svc.Insert((*ws->inserts)[ws->next_insert]);
    ok = id.ok();
    if (ok) {
      ++ws->next_insert;
      ws->live.push_back(*id);
    }
  } else {
    ok = svc.Delete(ws->live[victim_slot]).ok();
    if (ok) {
      ws->live[victim_slot] = ws->live.back();
      ws->live.pop_back();
    }
  }
  sample->end_ns = Tracer::NowNs();
  sample->ok = ok;
}

/// Closed-loop search clients, and one open-loop writer when
/// spec.write_rate > 0, against `svc` for spec.seconds.
PhaseResult RunPhase(PpannsService& svc, const Stack& stack,
                     ClientSlots& slots, const PhaseSpec& spec,
                     const SearchSettings& settings, WriteState* ws) {
  PhaseResult out;
  const std::size_t num_tokens = slots.slot(0).tokens.size();
  const ZipfSampler sampler(num_tokens, spec.zipf ? kZipfSkew : 0.0);
  if (svc.result_cache_enabled()) out.cache_before = svc.result_cache_stats();
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(spec.traced);
  const ServingCounters before = ReadServing(stack);

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));

  std::vector<std::vector<SearchSample>> per_client(spec.clients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientSlots::Slot& slot = slots.slot(c);
      Rng rng(spec.seed * 7919 + c + 1);
      auto& samples = per_client[c];
      samples.reserve(1 << 16);
      while (Clock::now() < end) {
        const std::size_t pick = sampler.Pick(rng);
        const bool tracing = tracer.enabled();
        SearchSample s;
        if (tracing) {
          s.request = tracer.NextId();
          slot.request.store(s.request, std::memory_order_release);
        }
        std::shared_lock<std::shared_mutex> lock;
        s.start_ns = Tracer::NowNs();
        if (spec.gate != nullptr) {
          while (spec.gate->write_pending.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          lock = std::shared_lock<std::shared_mutex>(spec.gate->mu);
        }
        auto r = svc.Search(slot.tokens[pick], kK, settings);
        if (lock.owns_lock()) lock.unlock();
        s.end_ns = Tracer::NowNs();
        s.ok = r.ok() && !r->partial && r->ids.size() == kK;
        if (r.ok()) {
          s.hit = r->counters.cache_hit;
          s.refine_s = r->counters.refine_seconds;
          s.dce_comparisons = r->counters.dce_comparisons;
        }
        if (tracing) {
          Span span;
          span.request = span.id = s.request;
          span.name = "search";
          span.start_ns = s.start_ns;
          span.end_ns = s.end_ns;
          span.token = static_cast<std::int32_t>(pick);
          span.ok = s.ok;
          tracer.Record(span);
        }
        samples.push_back(s);
      }
    });
  }

  if (spec.write_rate > 0.0) {
    for (std::size_t i = 0;; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / spec.write_rate));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      WriteSample w;
      w.due_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     due.time_since_epoch())
                     .count();
      const bool tracing = tracer.enabled();
      DoWrite(svc, ws, spec.gate, &w);
      if (tracing) {
        Span span;
        span.request = span.id = tracer.NextId();
        span.name = w.insert ? "insert" : "delete";
        span.start_ns = w.start_ns;
        span.end_ns = w.end_ns;
        span.ok = w.ok;
        tracer.Record(span);
      }
      out.writes.push_back(w);
    }
  }
  for (auto& t : clients) t.join();
  out.wall_s = SecondsSince(start);
  tracer.set_enabled(false);
  const ServingCounters after = ReadServing(stack);
  out.serving_cpu_s = after.cpu_s - before.cpu_s;
  out.loopback_bytes = after.tx_bytes - before.tx_bytes;
  if (svc.result_cache_enabled()) out.cache_after = svc.result_cache_stats();
  for (auto& v : per_client) {
    out.searches.insert(out.searches.end(), v.begin(), v.end());
  }
  return out;
}

// ---- Side passes (per-layer timings outside the serving path) ---------------

struct SideTables {
  /// FilterShard wall time per (token, shard), in microseconds, and a
  /// second, independent timing of the same call (the in-process "transport").
  std::vector<std::array<double, kShards>> filter_us;
  std::vector<std::array<double, kShards>> dispatch_us;
  std::vector<double> nodes_per_query;
  std::vector<double> distances_per_query;
  std::vector<double> encode_us;  ///< per query, summed over shards
  std::vector<double> decode_us;
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  std::vector<double> compare_ns;  ///< DCE comparison, per token
};

double ElapsedUs(std::int64_t t0) {
  return 1e-3 * static_cast<double>(Tracer::NowNs() - t0);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// a / b, or 0 when b is 0.
double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

SideTables RunSidePasses(const ShardedCloudServer& local,
                         const std::vector<QueryToken>& tokens, bool want_dce) {
  SideTables t;
  const std::size_t n = tokens.size();
  t.filter_us.resize(n);
  t.dispatch_us.resize(n);
  ShardFilterOptions options;
  options.k_prime = kKPrime;
  options.want_dce = want_dce;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      double nodes = 0.0, distances = 0.0;
      for (std::size_t s = 0; s < kShards; ++s) {
        SearchContext ctx;
        ShardFilterResult result;
        const std::int64_t t0 = Tracer::NowNs();
        const Status st =
            local.FilterShard(s, 0, tokens[i], options, &ctx, &result);
        const double us = ElapsedUs(t0);
        if (!st.ok()) Die("side pass FilterShard: " + st.ToString());
        (pass == 0 ? t.filter_us : t.dispatch_us)[i][s] = us;
        nodes += static_cast<double>(ctx.stats.nodes_visited);
        distances += static_cast<double>(ctx.stats.distance_computations);
      }
      if (pass == 0) {
        t.nodes_per_query.push_back(nodes);
        t.distances_per_query.push_back(distances);
      }
    }
  }

  ShardFilterOptions wire = options;
  wire.want_dce = true;
  for (std::size_t i = 0; i < std::min(n, kSideSample); ++i) {
    double enc = 0.0, dec = 0.0, req_bytes = 0.0, resp_bytes = 0.0;
    std::vector<Neighbor> merged;
    std::vector<DceCiphertext> dce;
    for (std::size_t s = 0; s < kShards; ++s) {
      SearchContext ctx;
      ShardFilterResult result;
      const Status st = local.FilterShard(s, 0, tokens[i], wire, &ctx, &result);
      if (!st.ok()) Die("side pass FilterShard: " + st.ToString());
      FilterRequestMessage request;
      request.shard = static_cast<std::uint32_t>(s);
      request.token = tokens[i];
      request.k_prime = kKPrime;
      request.want_dce = 1;
      req_bytes += static_cast<double>(request.ByteSize());
      // The response exactly as the shard server builds it.
      FilterResponseMessage response;
      response.scanned = result.scanned ? 1 : 0;
      response.candidates = result.candidates;
      if (!result.dce.empty()) {
        response.dce_block = result.dce.front().block;
        for (const DceCiphertext& ct : result.dce) {
          response.dce_data.insert(response.dce_data.end(), ct.data.begin(),
                                   ct.data.end());
        }
      }
      response.nodes_visited = ctx.stats.nodes_visited;
      response.distance_computations = ctx.stats.distance_computations;
      resp_bytes += static_cast<double>(response.ByteSize());
      std::int64_t t0 = Tracer::NowNs();
      BinaryWriter writer;
      response.Serialize(&writer);
      enc += ElapsedUs(t0);
      t0 = Tracer::NowNs();
      BinaryReader reader(writer.buffer());
      auto parsed = FilterResponseMessage::Deserialize(&reader);
      dec += ElapsedUs(t0);
      if (!parsed.ok()) Die("side pass decode: " + parsed.status().ToString());
      for (std::size_t j = 0; j < result.candidates.size(); ++j) {
        merged.push_back(result.candidates[j]);
        dce.push_back(result.dce[j]);
      }
    }
    t.encode_us.push_back(enc);
    t.decode_us.push_back(dec);
    t.request_bytes.push_back(req_bytes);
    t.response_bytes.push_back(resp_bytes);

    // DCE refine replay over the gathered SAP-top-k' candidates.
    std::vector<std::size_t> order(merged.size());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return merged[a] < merged[b];
    });
    order.resize(std::min(order.size(), kKPrime));
    std::size_t comparisons = 0;
    const DceTrapdoor& trapdoor = tokens[i].trapdoor;
    const std::int64_t t0 = Tracer::NowNs();
    ComparisonHeap heap(kK, [&](VectorId a, VectorId b) {
      ++comparisons;
      return DceScheme::Closer(dce[a], dce[b], trapdoor);
    });
    for (std::size_t j : order) heap.Offer(static_cast<VectorId>(j));
    const std::vector<VectorId> top = heap.ExtractSorted();
    const double ns = static_cast<double>(Tracer::NowNs() - t0);
    if (top.empty() || comparisons == 0) Die("side pass: empty DCE replay");
    t.compare_ns.push_back(ns / static_cast<double>(comparisons));
  }
  return t;
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    line += (i ? ", " : "") + Json(metrics[i].name) + ": {\"value\": " + buf +
            ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Searches overlapping any write interval (writes are sequential, so the
/// intervals are sorted and disjoint).
std::vector<bool> OverlapsWrite(const std::vector<SearchSample>& searches,
                                const std::vector<WriteSample>& writes) {
  std::vector<bool> out(searches.size(), false);
  for (std::size_t i = 0; i < searches.size(); ++i) {
    const auto it = std::lower_bound(
        writes.begin(), writes.end(), searches[i].start_ns,
        [](const WriteSample& w, std::int64_t t) { return w.end_ns < t; });
    out[i] = it != writes.end() && it->start_ns <= searches[i].end_ns;
  }
  return out;
}

std::vector<double> SearchMs(const std::vector<SearchSample>& searches,
                             const std::vector<bool>* mask, bool want) {
  std::vector<double> out;
  for (std::size_t i = 0; i < searches.size(); ++i) {
    if (!searches[i].ok) continue;
    if (mask != nullptr && (*mask)[i] != want) continue;
    out.push_back(searches[i].ms());
  }
  return out;
}

double Goodput(const PhaseResult& p, double limit_ms) {
  std::size_t good = 0;
  for (const auto& s : p.searches) good += (s.ok && s.ms() <= limit_ms) ? 1 : 0;
  return static_cast<double>(good) / p.wall_s;
}

std::size_t Completed(const PhaseResult& p) {
  std::size_t n = 0;
  for (const auto& s : p.searches) n += s.ok ? 1 : 0;
  return n;
}

// ---- Gates ------------------------------------------------------------------

struct Gates {
  bool ok = true;
  void Fail(const std::string& what) {
    std::fprintf(stderr, "servebench: gate failed: %s\n", what.c_str());
    ok = false;
  }
};

/// Every endpoint must report the live size the writer expects and the same
/// capacity (next global id) as the others.
void CheckEndpointsAgree(const Stack& stack, std::size_t expected_size,
                         Gates* gates) {
  std::optional<std::uint64_t> capacity;
  for (const auto& pool : stack.pools) {
    auto info = RemoteMutationClient(pool).Info();
    if (!info.ok()) {
      gates->Fail("info from " + pool->endpoint() + ": " +
                  info.status().ToString());
      continue;
    }
    if (info->size != expected_size) {
      gates->Fail("endpoint " + pool->endpoint() + " holds " +
                  std::to_string(info->size) + " live vectors, expected " +
                  std::to_string(expected_size));
    }
    if (capacity.has_value() && *capacity != info->capacity) {
      gates->Fail("endpoint " + pool->endpoint() + " disagrees on capacity");
    }
    capacity = info->capacity;
  }
}

int Run(const Options& opt) {
  const WorkloadSpec* found = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) Die("unknown workload '" + opt.workload + "'");
  const WorkloadSpec& w = *found;
  Watchdog watchdog;
  Gates gates;
  const std::string db_path = opt.work_dir + "/package-" + w.name + ".ppanns";

  // ---- Inputs, all from the seed.
  watchdog.Enter("datagen", 90);
  const std::size_t writes_planned =
      static_cast<std::size_t>(std::ceil(
          w.write_rate > 0.0 ? w.write_rate * opt.seconds
                             : kWritePhaseRate * opt.seconds / 2)) +
      1;
  Dataset ds = MakeDataset(SyntheticKind::kSiftLike, kBaseVectors,
                           w.tokens + writes_planned, 0, opt.seed);
  const std::size_t dim = ds.base.dim();
  FloatMatrix queries(w.tokens, dim);
  std::copy(ds.queries.row(0), ds.queries.row(0) + w.tokens * dim,
            queries.row(0));
  const auto gt = BruteForceKnnBatch(ds.base, queries, kK);
  Rng stat_rng(opt.seed + 17);
  const DatasetStats stats = ComputeStats(ds.base, stat_rng);
  double knn = 0.0;
  for (const auto& g : gt) {
    knn += std::sqrt(static_cast<double>(g[kK - 1].distance));
  }
  PpannsParams params;
  params.dcpe_beta = 0.5 * knn / static_cast<double>(gt.size());
  params.dce_scale_hint = std::max(stats.mean_norm, 1e-3);
  params.index_kind = IndexKind::kHnsw;
  params.hnsw = HnswParams{.m = 16, .ef_construction = 200, .seed = opt.seed};
  params.num_shards = kShards;
  params.seed = opt.seed;

  Stack stack;
  std::optional<DataOwner> owner;

  // Steady-state cost: rounds over the same queries with a second client,
  // tokens discarded, one round after each quiet phase of the run. On a
  // shared VM the single-thread speed can switch between two levels for
  // seconds at a time (~19 us vs ~26 us per token on a 4-vCPU Xeon), so the
  // metric is the fastest round's median: the cost without that
  // interference.
  std::vector<double> token_round_us;
  auto time_tokens = [&] {
    QueryClient timing_client(owner->ShareKeys(),
                              opt.seed * 31 + 9 + token_round_us.size());
    std::vector<double> round;
    for (std::size_t i = 0; i < w.tokens; ++i) {
      const std::int64_t t0 = Tracer::NowNs();
      const QueryToken token = timing_client.EncryptQuery(queries.row(i));
      round.push_back(ElapsedUs(t0));
      if (token.sap.empty()) Die("empty token");
    }
    token_round_us.push_back(Median(std::move(round)));
  };

  // ---- Set-up, several times; the last one serves.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    watchdog.Enter("setup", 120);
    stack.Stop();
    owner.reset();
    setup_s.push_back(SetUp(w, opt, ds.base, params, db_path, &stack, &owner));
    time_tokens();
  }
  PpannsService& svc = *stack.svc;

  // ---- User side: tokens (the paper's user cost) and the insert pool.
  watchdog.Enter("tokens", 60);
  QueryClient client(owner->ShareKeys(), opt.seed * 31 + 7);
  std::vector<QueryToken> tokens;
  for (std::size_t i = 0; i < w.tokens; ++i) {
    tokens.push_back(client.EncryptQuery(queries.row(i)));
  }
  time_tokens();
  std::vector<EncryptedVector> inserts;
  for (std::size_t i = 0; i < writes_planned; ++i) {
    inserts.push_back(owner->EncryptOne(ds.queries.row(w.tokens + i)));
  }
  std::vector<double> trapdoor_us, sap_us;
  if (opt.trace) {
    const SecretKeysPtr keys = owner->ShareKeys();
    Rng rng(opt.seed * 31 + 11);
    std::vector<float> sap(dim);
    for (std::size_t i = 0; i < w.tokens; ++i) {
      std::int64_t t0 = Tracer::NowNs();
      const DceTrapdoor td = keys->dce.GenTrapdoor(queries.row(i), rng);
      trapdoor_us.push_back(ElapsedUs(t0));
      t0 = Tracer::NowNs();
      keys->dcpe.Encrypt(queries.row(i), sap.data(), rng);
      sap_us.push_back(ElapsedUs(t0));
      if (td.data.empty()) Die("empty trapdoor");
    }
  }

  ClientSlots slots(tokens, kClients);
  std::unique_ptr<PpannsService> traced;
  std::unique_ptr<PpannsService> local;
  if (w.remote) {
    watchdog.Enter("connect", 60);
    local = LoadLocal(db_path);
    if (opt.trace) traced = ConnectTraced(stack.endpoints(), &slots);
  }

  // ---- Verification pass: recall against exact ground truth, and ids
  // identical to the in-process service and to the traced gather.
  watchdog.Enter("verify", 120);
  SearchSettings settings;
  settings.k_prime = kKPrime;
  double recall = 0.0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto r = svc.Search(tokens[i], kK, settings);
    if (!r.ok()) {
      gates.Fail("verify search: " + r.status().ToString());
      continue;
    }
    recall += RecallAtK(r->ids, gt[i], kK);
    for (PpannsService* other : {local.get(), traced.get()}) {
      if (other == nullptr) continue;
      auto o = other->Search(tokens[i], kK, settings);
      if (!o.ok() || o->ids != r->ids) {
        gates.Fail(std::string(other == local.get() ? "in-process" : "traced") +
                   " ids differ from the serving gather for token " +
                   std::to_string(i));
        break;
      }
    }
    if (!gates.ok) break;
  }
  recall /= static_cast<double>(tokens.size());
  time_tokens();
  if (recall < kRecallFloor) {
    gates.Fail("recall_at_10 " + std::to_string(recall) + " below floor " +
               std::to_string(kRecallFloor));
  }

  // ---- The timed window.
  WriteState ws;
  ws.inserts = &inserts;
  ws.rng = Rng(opt.seed * 31 + 13);
  for (std::size_t i = 0; i < kBaseVectors; ++i) {
    ws.live.push_back(static_cast<VectorId>(i));
  }
  WriteGate gate;
  PhaseSpec window;
  window.clients = kClients;
  window.zipf = w.zipf;
  window.write_rate = w.write_rate;
  window.gate = w.remote ? nullptr : &gate;
  window.seed = opt.seed;
  ResultCacheOptions cache_options;
  cache_options.capacity = kCacheCapacity;
  if (w.cache) svc.EnableResultCache(cache_options);

  PhaseResult main_window;  // untraced: the end-to-end figures
  PhaseResult traced_window;
  PpannsService* last = &svc;
  if (!opt.trace) {
    watchdog.Enter("window", opt.seconds + 60);
    window.seconds = opt.seconds;
    main_window = RunPhase(svc, stack, slots, window, settings, &ws);
  } else {
    watchdog.Enter("window_untraced", opt.seconds / 2 + 60);
    window.seconds = opt.seconds / 2;
    main_window = RunPhase(svc, stack, slots, window, settings, &ws);
    if (traced != nullptr) {
      last = traced.get();
      if (w.cache) traced->EnableResultCache(cache_options);
    }
    watchdog.Enter("window_traced", opt.seconds / 2 + 60);
    window.seed = opt.seed + 1;
    window.traced = true;
    traced_window = RunPhase(*last, stack, slots, window, settings, &ws);
  }

  // ---- Post-window gates: endpoints agree, cached answers are fresh.
  watchdog.Enter("gates", 120);
  time_tokens();
  const std::size_t window_writes =
      main_window.writes.size() + traced_window.writes.size();
  if (w.remote && window_writes > 0) {
    CheckEndpointsAgree(stack, ws.live.size(), &gates);
  }
  if (w.cache) {
    ConnectOptions connect;
    auto fresh_cluster = ConnectCluster(stack.endpoints(), connect);
    if (!fresh_cluster.ok()) {
      Die("fresh gather: " + fresh_cluster.status().ToString());
    }
    PpannsService fresh(std::move(fresh_cluster->server));
    // The first search answers from whatever the window left cached (a
    // stale entry would show here); the second is a hit by construction.
    std::size_t hits = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      auto first = last->Search(tokens[i], kK, settings);
      auto second = last->Search(tokens[i], kK, settings);
      auto plain = fresh.Search(tokens[i], kK, settings);
      if (!first.ok() || !second.ok() || !plain.ok() ||
          first->ids != plain->ids || second->ids != plain->ids) {
        gates.Fail("cached answer differs from a fresh search for token " +
                   std::to_string(i));
        break;
      }
      hits += second->counters.cache_hit ? 1 : 0;
    }
    if (hits == 0) gates.Fail("the cache answered none of the gate's searches");
  }

  // ---- Side passes for the per-layer figures.
  SideTables side;
  if (opt.trace) {
    watchdog.Enter("side_passes", 120);
    const PpannsService& on = w.remote ? *local : svc;
    side = RunSidePasses(on.sharded_server(), tokens, w.remote);
  }

  // ---- Write phase on the read-only workloads: one open-loop writer and
  // one search client, after the read window.
  PhaseResult write_phase;
  if (w.write_rate == 0.0) {
    watchdog.Enter("write_phase", opt.seconds / 2 + 60);
    PhaseSpec wp;
    wp.seconds = opt.seconds / 2;
    wp.clients = 1;
    wp.write_rate = kWritePhaseRate;
    wp.gate = window.gate;
    wp.traced = opt.trace;
    wp.seed = opt.seed + 2;
    write_phase = RunPhase(*last, stack, slots, wp, settings, &ws);
    if (w.remote) {
      CheckEndpointsAgree(stack, ws.live.size(), &gates);
    } else if (svc.size() != ws.live.size()) {
      gates.Fail("in-process size drifted from the writer's count");
    }
  }
  time_tokens();

  // ---- Accounting.
  std::size_t attempted = 0, failed = 0;
  for (const PhaseResult* p : {&main_window, &traced_window, &write_phase}) {
    attempted += p->searches.size() + p->writes.size();
    for (const auto& s : p->searches) failed += s.ok ? 0 : 1;
    for (const auto& x : p->writes) failed += x.ok ? 0 : 1;
  }
  if (failed > 0) gates.Fail(std::to_string(failed) + " operations failed");

  double rss_mb = 0.0;
  if (w.remote) {
    for (const auto& s : stack.servers) {
      rss_mb += PeakRssMb(std::to_string(s->pid()));
    }
  } else {
    rss_mb = PeakRssMb("self");
  }
  const PhaseResult& write_source =
      w.write_rate == 0.0 ? write_phase
                          : (opt.trace ? traced_window : main_window);
  const std::vector<WriteSample>& writes = write_source.writes;

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const std::vector<double> search_ms =
        SearchMs(main_window.searches, nullptr, true);
    std::vector<double> write_ms;
    for (const auto& x : writes) {
      if (x.ok) write_ms.push_back(x.from_due_ms());
    }
    metrics = {
        {"goodput_qps", Goodput(main_window, w.limit_ms), "1/s"},
        {"search_p50_ms", Percentile(search_ms, 50), "ms"},
        {"search_p99_ms", Percentile(search_ms, 99), "ms"},
        {"write_p50_ms", Percentile(write_ms, 50), "ms"},
        {"write_p99_ms", Percentile(write_ms, 99), "ms"},
        {"recall_at_10", recall, "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"token_us",
         *std::min_element(token_round_us.begin(), token_round_us.end()),
         "us"},
        {"server_cpu_us_per_query",
         1e6 * Ratio(main_window.serving_cpu_s, Completed(main_window)), "us"},
        {"server_rss_mb", rss_mb, "MB"},
    };
    std::fprintf(stderr,
                 "servebench: %s seed %llu: %zu searches (%zu ok) in the "
                 "window, %zu writes, window %.2f s\n",
                 w.name, static_cast<unsigned long long>(opt.seed),
                 main_window.searches.size(), search_ms.size(),
                 write_ms.size(), main_window.wall_s);
  } else {
    const std::vector<Span> spans = Tracer::Get().Collect();
    const std::string trace_path = opt.work_dir + "/trace-" + w.name + "-" +
                                   std::to_string(opt.seed) + ".jsonl";
    if (!Tracer::Write(spans, trace_path)) Die("cannot write " + trace_path);
    std::fprintf(stderr, "servebench: %zu spans written to %s\n", spans.size(),
                 trace_path.c_str());

    // Search spans of the traced window, their transport children.
    std::map<std::uint64_t, std::vector<const Span*>> children;
    std::vector<double> rtt_us, wire_us;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "transport.filter") != 0) continue;
      children[s.parent].push_back(&s);
      const double us = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
      rtt_us.push_back(us);
      if (s.token >= 0 && s.shard >= 0) {
        wire_us.push_back(us - side.filter_us[s.token][s.shard]);
      }
    }
    if (!w.remote) {
      for (std::size_t i = 0; i < side.dispatch_us.size(); ++i) {
        for (std::size_t s = 0; s < kShards; ++s) {
          rtt_us.push_back(side.dispatch_us[i][s]);
          wire_us.push_back(side.dispatch_us[i][s] - side.filter_us[i][s]);
        }
      }
    }
    std::map<std::uint64_t, const Span*> search_spans;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "search") == 0) search_spans[s.request] = &s;
    }
    std::vector<double> self_us, refine_us, dce_cmp;
    std::size_t hits = 0, traced_searches = 0;
    for (const auto& s : traced_window.searches) {
      ++traced_searches;
      if (s.hit) {
        ++hits;
        continue;
      }
      if (!s.ok) continue;
      refine_us.push_back(1e6 * s.refine_s);
      dce_cmp.push_back(static_cast<double>(s.dce_comparisons));
      const auto it = search_spans.find(s.request);
      if (it != search_spans.end()) {
        self_us.push_back(1e-3 * SelfTimeNs(*it->second, children[s.request]));
      }
    }
    std::vector<double> filter_all;
    for (const auto& row : side.filter_us) {
      filter_all.insert(filter_all.end(), row.begin(), row.end());
    }

    // Searches overlapping a write against searches clear of writes.
    std::vector<double> overlap_ms, clear_ms;
    if (w.write_rate > 0.0) {
      const std::vector<bool> mask =
          OverlapsWrite(traced_window.searches, traced_window.writes);
      overlap_ms = SearchMs(traced_window.searches, &mask, true);
      clear_ms = SearchMs(traced_window.searches, &mask, false);
    } else {
      const std::vector<bool> mask =
          OverlapsWrite(write_phase.searches, write_phase.writes);
      overlap_ms = SearchMs(write_phase.searches, &mask, true);
      clear_ms = SearchMs(traced_window.searches, nullptr, true);
    }
    std::vector<double> insert_ms, delete_ms;
    for (const auto& x : writes) {
      if (x.ok) (x.insert ? insert_ms : delete_ms).push_back(x.call_ms());
    }
    const double stale =
        static_cast<double>(traced_window.cache_after.stale_evictions -
                            traced_window.cache_before.stale_evictions);
    const double untraced_goodput = Goodput(main_window, w.limit_ms);
    const double traced_goodput = Goodput(traced_window, w.limit_ms);
    metrics = {
        {"crypto.trapdoor_us", Median(trapdoor_us), "us"},
        {"crypto.sap_us", Median(sap_us), "us"},
        {"crypto.dce_compare_ns", Median(side.compare_ns), "ns"},
        {"index.filter_us_p50", Percentile(filter_all, 50), "us"},
        {"index.filter_us_p99", Percentile(filter_all, 99), "us"},
        {"index.nodes_visited_per_query", Mean(side.nodes_per_query), "count"},
        {"index.distance_computations_per_query",
         Mean(side.distances_per_query), "count"},
        {"core.refine_us", Median(refine_us), "us"},
        {"core.dce_comparisons_per_query", Mean(dce_cmp), "count"},
        {"core.gather_self_us", Median(self_us), "us"},
        {"core.cache_hit_ratio", Ratio(hits, traced_searches), "ratio"},
        {"core.stale_evictions_per_write",
         Ratio(stale, traced_window.writes.size()), "count"},
        {"core.insert_ms", Median(insert_ms), "ms"},
        {"core.delete_ms", Median(delete_ms), "ms"},
        {"core.search_p99_overlapping_write_ms", Percentile(overlap_ms, 99),
         "ms"},
        {"core.search_p99_clear_ms", Percentile(clear_ms, 99), "ms"},
        {"net.filter_rtt_us_p50", Percentile(rtt_us, 50), "us"},
        {"net.filter_rtt_us_p99", Percentile(rtt_us, 99), "us"},
        {"net.wire_overhead_us", Median(wire_us), "us"},
        {"net.request_bytes_per_query", Mean(side.request_bytes), "bytes"},
        {"net.response_bytes_per_query", Mean(side.response_bytes), "bytes"},
        {"net.encode_us", Median(side.encode_us), "us"},
        {"net.decode_us", Median(side.decode_us), "us"},
        {"net.loopback_bytes_per_query",
         Ratio(traced_window.loopback_bytes, Completed(traced_window)),
         "bytes"},
        {"net.failed_calls",
         static_cast<double>(g_failed_transport_calls.load()), "count"},
        {"failed_ratio", Ratio(failed, attempted), "ratio"},
        {"trace.goodput_untraced_qps", untraced_goodput, "1/s"},
        {"trace.goodput_traced_qps", traced_goodput, "1/s"},
        {"trace.overhead_ratio",
         untraced_goodput > 0 ? 1.0 - traced_goodput / untraced_goodput : 0.0,
         "ratio"},
        {"trace.spans", static_cast<double>(spans.size()), "count"},
    };
  }

  std::printf("{\"host\": {\"kernel_backend\": %s, \"hardware_threads\": %u, "
              "\"workload\": %s, \"seed\": %llu, \"trace\": %d}}\n",
              Json(ActiveKernelName()).c_str(),
              std::thread::hardware_concurrency(),
              Json(w.name).c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  watchdog.Enter("teardown", 60);
  traced.reset();
  stack.Stop();
  std::remove(db_path.c_str());
  PrintResult(gates.ok, attempted, failed, metrics);
  return gates.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server-bin PATH --work-dir DIR\n");
    return 2;
  }
  return Run(opt);
}
