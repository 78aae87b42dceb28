// urcgc benchmark: end-to-end and per-layer measurements of the
// protocol on three workloads, driven only through public entry points.
//
//   urcgc_perfbench --workload=NAME --seed=S --seconds=T [--trace=0|1]
//                   [--spans-dir=DIR]
//
// --trace=0 (end to end): an untimed warm-up pass, then timed passes of
// harness::Experiment (no registry, no extra observer) until T seconds of
// passes have run. Every pass builds a fresh group from the seed, so on
// the deterministic simulator every count must repeat bit for bit across
// passes; the run fails otherwise. Timings are medians over the passes.
// After each block of passes the group is assembled (without running) to
// time set-up, and a fixed reference kernel runs; every reported time is
// calibrated by the kernel's median (see reference_kernel).
//
// --trace=1 (per layer): the benchmark assembles the group itself with
// the constructors the harness uses, behind a timing rt::Runtime decorator
// and a recording net::Endpoint decorator, with an obs::Registry attached.
// Traced passes alternate with untraced passes of the same assembly (the
// overhead base). The last traced pass's frames, decisions, coordinator inputs,
// delivery stream and arrival order are replayed through the core, causal
// and wire functions to time each layer in isolation. Spans are kept in
// memory and written to DIR when the run ends.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Every pass must reach quiescence and pass the URCGC clause check before
// any number is printed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "causal/graph.hpp"
#include "causal/waiting_list.hpp"
#include "check/clauses.hpp"
#include "core/coordinator.hpp"
#include "core/delta.hpp"
#include "core/history.hpp"
#include "core/pdu.hpp"
#include "core/process.hpp"
#include "fault/injector.hpp"
#include "harness/experiment.hpp"
#include "net/endpoint.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "runtime/socket.hpp"
#include "sim/simulation.hpp"
#include "wire/shared_buffer.hpp"
#include "workload/workload.hpp"

// ---------------------------------------------------------------------------
// Heap allocation counter: every call of the replaced global operator new.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace urcgc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads. All are closed loop: the generator offers `load` messages per
// process per round (`burst` draws), and a process takes no more while 4 of
// its submissions are pending.

struct Workload {
  const char* name;
  harness::Backend backend;
  int n;
  int k;
  core::ControlEncoding encoding;
  double load;
  double omission;
  std::int64_t messages;
  int setup_reps;  // group assemblies per set-up sample (~20-100 ms)
};

constexpr Workload kWorkloads[] = {
    {"wide_n1000_delta", harness::Backend::kSim, 1000, 1,
     core::ControlEncoding::kDelta, 0.05, 0.0, 600, 3},
    {"lossy_n50_k4", harness::Backend::kSim, 50, 4,
     core::ControlEncoding::kFull, 1.0, 0.01, 4000, 250},
    {"socket_n3_k4", harness::Backend::kSocket, 3, 4,
     core::ControlEncoding::kFull, 1.0, 0.0, 3000, 300},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

harness::ExperimentConfig make_config(const Workload& w, std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.protocol.n = w.n;
  c.protocol.max_subruns_in_flight = w.k;
  c.protocol.control_encoding = w.encoding;
  c.workload.load = w.load;
  c.workload.burst = w.k;
  c.workload.total_messages = w.messages;
  c.workload.max_pending_per_process = 4;
  c.workload.payload_bytes = 32;
  c.protocol.payload_bytes = 32;
  c.faults.omission_prob = w.omission;
  c.backend = w.backend;
  c.thread_tick_ns = 0;  // free-running rounds on the socket backend
  c.grace_subruns = 2;  // stability decisions settle; no more is timed
  c.limit_rtd = 2000;
  c.seed = seed;
  return c;
}

// ---------------------------------------------------------------------------
// One end-to-end pass through harness::Experiment.

struct PassResult {
  bool valid = false;
  std::string why;
  std::int64_t offered = 0;
  std::int64_t failed = 0;
  std::uint64_t deliveries = 0;  // (message, member) pairs processed
  double delivered_all = 0.0;    // messages processed at every survivor
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double end_rtd = 0.0;
  double delay_p50_rtd = 0.0;
  double delay_p99_rtd = 0.0;
  std::size_t delay_samples = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t packets = 0;
};

/// Run validity and failure accounting shared by both modes: a pass that is
/// not quiescent or fails a URCGC clause fails every offered message.
void account(PassResult& r, bool quiescent, bool clauses_ok,
             std::int64_t offered, std::uint64_t discarded,
             const std::vector<std::size_t>& survivor_processed) {
  r.offered = offered;
  std::size_t all = survivor_processed.empty()
                        ? 0
                        : *std::min_element(survivor_processed.begin(),
                                            survivor_processed.end());
  r.delivered_all = static_cast<double>(all);
  r.valid = quiescent && clauses_ok;
  if (!quiescent) r.why = "not quiescent";
  if (!clauses_ok) r.why = "URCGC clause violation";
  if (!r.valid) {
    r.failed = offered;
    return;
  }
  const std::int64_t failed = offered - static_cast<std::int64_t>(all) +
                              static_cast<std::int64_t>(discarded);
  r.failed = std::clamp<std::int64_t>(failed, 0, offered);
}

PassResult run_experiment(const harness::ExperimentConfig& config) {
  PassResult r;
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const harness::ExperimentReport report = harness::Experiment(config).run();
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.heap_allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  std::vector<std::size_t> survivors;
  for (const harness::ProcessEndState& p : report.processes) {
    if (!p.halted) survivors.push_back(p.processed);
  }
  account(r, report.quiescent && report.workload_exhausted, report.all_ok(),
          report.submitted, report.discarded, survivors);
  if (!report.violations.empty()) r.why += ": " + report.violations.front();
  r.deliveries = report.processed_events;
  r.end_rtd = report.end_rtd;
  r.delay_p50_rtd = report.delay_rtd.p50;
  r.delay_p99_rtd = report.delay_rtd.p99;
  r.delay_samples = report.delay_rtd.count;
  r.control_bytes = report.traffic.bytes(stats::MsgClass::kRequest) +
                    report.traffic.bytes(stats::MsgClass::kDecision);
  r.packets = report.net_stats.packets_sent;
  return r;
}

// ---------------------------------------------------------------------------
// Spans: recorded around every call the benchmark's decorators see. Each
// thread keeps its own stack and buffer; per-layer totals and self times
// (duration minus the time covered by child spans) are aggregated as spans
// end, and raw spans up to a cap are written out when the run ends.

enum Layer : std::uint8_t {
  kRunUntil,   // rt::Runtime::run_until / run_until_quiescent
  kClosure,    // a posted closure (sim: a queue event)
  kRound,      // a round handler
  kSend,       // net::Endpoint::send
  kBroadcast,  // net::Endpoint::broadcast
  kUpcall,     // the endpoint upcall into the process
  kLayerCount,
};
constexpr const char* kLayerNames[] = {"rt.run_until", "rt.closure",
                                       "rt.round",     "net.send",
                                       "net.broadcast", "net.upcall"};

struct SpanRecord {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  // 0 = none
  std::uint8_t layer;
  std::uint8_t thread;
};

struct LayerTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanSink {
 public:
  static constexpr std::size_t kMaxRecords = 200'000;

  struct Open {
    std::uint8_t layer;
    std::uint32_t id;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct ThreadBuf {
    std::uint8_t thread = 0;
    std::vector<Open> stack;
    std::vector<SpanRecord> records;
    LayerTotals totals[kLayerCount];
  };

  ThreadBuf& local() {
    thread_local ThreadBuf* buf = nullptr;
    thread_local std::uint64_t generation = 0;
    if (buf == nullptr || generation != generation_) {
      std::lock_guard<std::mutex> lk(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      buf = bufs_.back().get();
      buf->thread = static_cast<std::uint8_t>(bufs_.size() - 1);
      buf->records.reserve(1024);
      generation = generation_;
    }
    return *buf;
  }

  void begin(Layer layer) {
    ThreadBuf& b = local();
    b.stack.push_back(
        {layer, next_id_.fetch_add(1, std::memory_order_relaxed), now_ns(),
         0});
  }

  void end() {
    const std::int64_t t = now_ns();
    ThreadBuf& b = local();
    const Open open = b.stack.back();
    b.stack.pop_back();
    const std::int64_t dur = t - open.start;
    LayerTotals& tot = b.totals[open.layer];
    tot.total_ns += dur;
    tot.self_ns += dur - open.child_ns;
    std::uint32_t parent = 0;
    if (!b.stack.empty()) {
      b.stack.back().child_ns += dur;
      parent = b.stack.back().id;
    }
    if (recorded_.fetch_add(1, std::memory_order_relaxed) < kMaxRecords) {
      b.records.push_back(
          {open.start, t, open.id, parent, open.layer, b.thread});
    }
  }

  /// Forgets every span (a new traced pass starts). Threads of the
  /// previous pass are gone; their thread_local buffers re-register.
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    bufs_.clear();
    ++generation_;
    recorded_ = 0;
    next_id_ = 1;
  }

  [[nodiscard]] LayerTotals totals(Layer layer) const {
    LayerTotals sum;
    for (const auto& b : bufs_) {
      sum.total_ns += b->totals[layer].total_ns;
      sum.self_ns += b->totals[layer].self_ns;
    }
    return sum;
  }

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  void write_csv(const std::filesystem::path& path) const {
    std::ofstream out(path);
    out << "id,parent,thread,layer,start_ns,end_ns\n";
    for (const auto& b : bufs_) {
      for (const SpanRecord& s : b->records) {
        out << s.id << ',' << s.parent << ',' << int{s.thread} << ','
            << kLayerNames[s.layer] << ',' << s.start_ns << ',' << s.end_ns
            << '\n';
      }
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::uint64_t generation_ = 1;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint32_t> next_id_{1};
};

SpanSink g_spans;

struct Span {
  explicit Span(Layer layer) { g_spans.begin(layer); }
  ~Span() { g_spans.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// rt::Runtime decorator: every posted closure and round handler runs
/// inside a span, which splits the runtime's own time from handler time.
class TimedRuntime final : public rt::Runtime {
 public:
  explicit TimedRuntime(rt::Runtime& inner) : inner_(inner) {}

  [[nodiscard]] Tick now() const override { return inner_.now(); }
  [[nodiscard]] const rt::RoundClock& clock() const override {
    return inner_.clock();
  }
  void post(ProcessId owner, Tick delay, rt::EventFn fn) override {
    inner_.post(owner, delay, [fn = std::move(fn)] {
      Span span(kClosure);
      fn();
    });
  }
  using rt::Runtime::on_round;
  void on_round(ProcessId owner, rt::RoundHandler handler) override {
    inner_.on_round(owner, [handler = std::move(handler)](RoundId round) {
      Span span(kRound);
      handler(round);
    });
  }
  Tick run_until(Tick limit) override {
    Span span(kRunUntil);
    return inner_.run_until(limit);
  }
  Tick run_until_quiescent(Tick limit,
                           const std::function<bool()>& predicate) override {
    Span span(kRunUntil);
    return inner_.run_until_quiescent(limit, predicate);
  }
  [[nodiscard]] rt::DatagramSubnet* datagram_subnet() override {
    return inner_.datagram_subnet();
  }

 private:
  rt::Runtime& inner_;
};

/// Everything the recording endpoints and the observer keep for replay.
struct Recording {
  struct Frame {
    ProcessId dst;  // kNoProcess = broadcast
    wire::SharedBuffer bytes;
  };
  /// Arrival stream of one replayed member: frames received and messages
  /// generated locally, in the order that member's context saw them.
  struct Arrival {
    std::vector<std::uint8_t> frame;  // empty: `own` is a local message
    core::AppMessage own;
  };

  std::mutex mu;  // guards frames (sends come from every context)
  std::vector<Frame> frames;
  std::vector<std::vector<Arrival>> arrivals;  // [replayed member]
  std::vector<core::AppMessage> delivered;     // member 0's processing
  std::vector<std::uint64_t> rx_by_type;       // per PduType, all members
  std::mutex rx_mu;

  void clear() {
    frames.clear();
    arrivals.clear();
    delivered.clear();
    rx_by_type.assign(16, 0);
  }
};

constexpr int kReplayMembers = 4;

/// net::Endpoint decorator: times send/broadcast, records every frame,
/// and records arrivals at the replayed members through the upcall.
class RecordingEndpoint final : public net::Endpoint {
 public:
  RecordingEndpoint(net::Endpoint& inner, Recording& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] ProcessId self() const override { return inner_.self(); }
  void set_upcall(UpcallFn fn) override {
    const ProcessId me = inner_.self();
    inner_.set_upcall([this, me, fn = std::move(fn)](
                          ProcessId src, std::span<const std::uint8_t> b) {
      if (!b.empty()) {
        std::lock_guard<std::mutex> lk(rec_.rx_mu);
        ++rec_.rx_by_type[b[0] & 15U];
      }
      if (me < static_cast<ProcessId>(rec_.arrivals.size())) {
        rec_.arrivals[static_cast<std::size_t>(me)].push_back(
            {std::vector<std::uint8_t>(b.begin(), b.end()), {}});
      }
      Span span(kUpcall);
      fn(src, b);
    });
  }
  void send(ProcessId dst, wire::SharedBuffer payload) override {
    record(dst, payload);
    Span span(kSend);
    inner_.send(dst, std::move(payload));
  }
  void broadcast(wire::SharedBuffer payload) override {
    record(kNoProcess, payload);
    Span span(kBroadcast);
    inner_.broadcast(std::move(payload));
  }
  using net::Endpoint::broadcast;
  using net::Endpoint::send;

 private:
  void record(ProcessId dst, const wire::SharedBuffer& payload) {
    std::lock_guard<std::mutex> lk(rec_.mu);
    rec_.frames.push_back({dst, payload});
  }

  net::Endpoint& inner_;
  Recording& rec_;
};

/// Observer for the self-assembled group: the causal graph for the clause
/// check, delivery and orphan counts, and the replay streams.
class TraceObserver final : public core::Observer {
 public:
  explicit TraceObserver(Recording* rec) : rec_(rec) {}

  void on_generated(ProcessId p, const core::AppMessage& msg,
                    Tick /*at*/) override {
    std::lock_guard<std::mutex> lk(mu_);
    graph_.add(msg.mid, msg.deps);
    if (rec_ != nullptr &&
        p < static_cast<ProcessId>(rec_->arrivals.size())) {
      rec_->arrivals[static_cast<std::size_t>(p)].push_back({{}, msg});
    }
  }
  void on_processed(ProcessId p, const core::AppMessage& msg,
                    Tick /*at*/) override {
    std::lock_guard<std::mutex> lk(mu_);
    ++deliveries_;
    if (rec_ != nullptr && p == 0) rec_->delivered.push_back(msg);
  }
  void on_discarded(ProcessId, const Mid&, Tick) override {
    std::lock_guard<std::mutex> lk(mu_);
    ++discarded_;
  }

  std::mutex mu_;
  causal::CausalGraph graph_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t discarded_ = 0;

 private:
  Recording* rec_;
};

// ---------------------------------------------------------------------------
// Self-assembled group, built with the same public constructors and in the
// same order as harness::Experiment (fault plan, runtime, network,
// endpoints, processes, workload, round handlers, start). Used to time
// set-up, and (with decorators and a registry) for the traced run.

struct Group {
  harness::ExperimentConfig config;
  std::unique_ptr<rt::Runtime> inner;
  sim::Simulation* sim = nullptr;
  rt::SocketRuntime* socket = nullptr;
  std::unique_ptr<TimedRuntime> timed;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<RecordingEndpoint>> recording;
  std::vector<std::unique_ptr<core::UrcgcProcess>> processes;
  std::unique_ptr<workload::LoadGenerator> load;
  std::vector<std::int64_t> round_starts_ns;

  Group(const harness::ExperimentConfig& cfg, core::Observer* observer,
        obs::Registry* metrics, Recording* rec)
      : config(cfg) {
    const int n = config.protocol.n;
    const rt::RoundClock clock(config.round_ticks);
    Rng master(config.seed);
    fault::FaultPlan plan(static_cast<std::size_t>(n));
    plan.uniform_omissions(config.faults.omission_prob);
    injector = std::make_unique<fault::FaultInjector>(plan,
                                                      master.fork(0x0FA17));
    if (config.backend == harness::Backend::kSocket) {
      rt::SocketConfig sc;
      sc.n = n;
      sc.clock = clock;
      sc.tick_duration = std::chrono::nanoseconds(config.thread_tick_ns);
      sc.metrics = metrics;
      auto created = rt::SocketRuntime::create(sc);
      if (!created.has_value()) {
        std::fprintf(stderr, "socket runtime: %s\n", created.error().c_str());
        std::exit(1);
      }
      socket = created.value().get();
      inner = std::move(created).value();
    } else {
      auto s = std::make_unique<sim::Simulation>(clock);
      sim = s.get();
      inner = std::move(s);
    }
    rt::Runtime* rt = inner.get();
    if (rec != nullptr) {
      timed = std::make_unique<TimedRuntime>(*inner);
      rt = timed.get();
    }
    net::NetConfig net_config = config.net;
    net_config.metrics = metrics;
    network = std::make_unique<net::Network>(*rt, *injector, net_config,
                                             master.fork(0x0E7));
    endpoints.reserve(static_cast<std::size_t>(n));
    processes.reserve(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      endpoints.push_back(
          std::make_unique<net::DatagramEndpoint>(*network, p));
      net::Endpoint* ep = endpoints.back().get();
      if (rec != nullptr) {
        recording.push_back(std::make_unique<RecordingEndpoint>(*ep, *rec));
        ep = recording.back().get();
      }
      processes.push_back(std::make_unique<core::UrcgcProcess>(
          config.protocol, p, *rt, *ep, *injector, observer, metrics));
    }
    workload::LoadGenerator::Hooks hooks;
    hooks.submit = [this](ProcessId p, std::vector<std::uint8_t> payload,
                          std::vector<Mid> deps) {
      return processes[p]->data_rq(std::move(payload), std::move(deps));
    };
    hooks.active = [this, rt](ProcessId p) {
      return processes[p]->member() && !processes[p]->halted() &&
             !injector->is_crashed(p, rt->now());
    };
    hooks.pending = [this](ProcessId p) {
      return static_cast<std::int64_t>(processes[p]->pending_user_messages());
    };
    hooks.last_processed = [this](ProcessId p, ProcessId origin) {
      return processes[p]->last_processed_mid_of(origin);
    };
    load = std::make_unique<workload::LoadGenerator>(
        n, config.workload, std::move(hooks), master.fork(0x10AD));
    rt->on_round([this](RoundId round) { load->on_round(round); });
    for (auto& process : processes) process->start();
    if (rec != nullptr) {
      // Host handler, registered last: every context is parked while it
      // runs, so the round cadence is read without racing the workers.
      rt->on_round(
          [this](RoundId) { round_starts_ns.push_back(now_ns()); });
    }
  }

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  ~Group() {
    // Workers stop before the processes their closures reference go away.
    if (socket != nullptr) socket->shutdown();
  }

  rt::Runtime& runtime() {
    return timed != nullptr ? static_cast<rt::Runtime&>(*timed) : *inner;
  }

  /// The harness's quiescence rule (fault-free membership: no joiners).
  [[nodiscard]] bool quiescent() const {
    if (!load->exhausted()) return false;
    for (const auto& process : processes) {
      if (process->halted()) continue;
      if (process->pending_user_messages() > 0) return false;
      if (process->mt().waiting_size() > 0) return false;
      if (!process->mt().missing_ranges().empty()) return false;
      const auto& d = process->latest_decision();
      for (ProcessId q = 0; q < d.n(); ++q) {
        if (d.max_processed[q] != kNoSeq &&
            d.max_processed[q] > process->mt().prefix(q)) {
          return false;
        }
      }
    }
    return true;
  }

  /// Runs to quiescence plus the grace subruns, like the harness.
  bool run() {
    rt::Runtime& rt = runtime();
    const rt::RoundClock& clock = rt.clock();
    const auto limit = static_cast<Tick>(
        config.limit_rtd * static_cast<double>(clock.ticks_per_rtd()));
    Tick stopped = rt.run_until_quiescent(limit, [this] { return quiescent(); });
    const bool ok = quiescent();
    if (ok && config.grace_subruns > 0) {
      rt.run_until(std::min(
          stopped + config.grace_subruns * clock.ticks_per_subrun(), limit));
    }
    return ok;
  }
};

/// Set-up time: assemble `reps` groups up to the first round (everything
/// is built and started; nothing has run) and return seconds per group.
/// Teardown is outside the timed region.
double measure_setup(const harness::ExperimentConfig& config, int reps) {
  double total = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    auto group = std::make_unique<Group>(config, nullptr, nullptr, nullptr);
    total += seconds_since(t0);
    group.reset();
  }
  return total / reps;
}

// ---------------------------------------------------------------------------
// Output.

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<MetricOut>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_spread(const char* what, const std::vector<double>& v,
                  const char* unit) {
  if (v.empty()) return;
  std::printf("  %-22s min %.6g  median %.6g  max %.6g %s  (%zu samples)\n",
              what, *std::min_element(v.begin(), v.end()), median(v),
              *std::max_element(v.begin(), v.end()), unit, v.size());
}

/// Ends the run when a pass is not quiescent or breaks a URCGC clause: the
/// result line says "correct": false and the exit status is 1, so run.py
/// forwards no result.
void require_valid(const PassResult& r, const char* what) {
  if (r.valid) return;
  std::printf("%s pass invalid: %s (failed %lld of %lld)\n", what,
              r.why.c_str(), static_cast<long long>(r.failed),
              static_cast<long long>(r.offered));
  print_result(false, std::max<std::int64_t>(r.offered, 1),
               std::max<std::int64_t>(r.failed, 1), {});
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Host-speed calibration. A shared host's speed drifts by tens of percent
// over minutes, and CPU time drifts with wall time, so neither can be
// compared across runs made at different times. A fixed reference kernel,
// independent of the urcgc code (no change to the program can move it),
// runs between blocks of passes. Every reported time is rescaled by
// kReferenceNominalS / (the kernel's median time in this run): it reads in
// seconds of a host on which the kernel takes kReferenceNominalS.

constexpr double kReferenceNominalS = 0.1;
constexpr double kBlockS = 0.4;        // passes between two kernel blocks
constexpr double kKernelShare = 0.15;  // kernel time per block time

double reference_kernel() {
  // Allocation churn plus ordered and hashed lookups over a ~3 MB working
  // set: the operation mix of the protocol's hot containers.
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::vector<std::uint8_t>> ordered;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 120'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ordered.emplace(x % 20'000, std::vector<std::uint8_t>(48, 1));
    hashed[x % 40'000] += i;
    auto it = ordered.lower_bound((x >> 20) % 20'000);
    if (it != ordered.end() && (i & 1U) == 0) {
      sum += it->second.size();
      ordered.erase(it);
    }
  }
  if (sum + hashed.size() == 0) std::printf(" ");  // keeps the work observable
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// End-to-end mode.

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  const harness::ExperimentConfig config = make_config(w, seed);
  const bool exact = w.backend == harness::Backend::kSim;

  // Untimed warm-up: caches, allocator arenas, lazy statics.
  require_valid(run_experiment(config), "warm-up");
  (void)measure_setup(config, 1);

  std::vector<PassResult> passes;
  std::vector<double> setups;
  std::vector<double> kernel;
  const auto start = Clock::now();
  while (passes.size() < 3 || seconds_since(start) < seconds) {
    const auto block = Clock::now();
    do {
      PassResult r = run_experiment(config);
      require_valid(r, "timed");
      passes.push_back(r);
    } while (seconds_since(block) < kBlockS);
    setups.push_back(measure_setup(config, w.setup_reps));
    // The kernel gets a fixed share of the run, so its median is as steady
    // on a workload with 5-second passes as on one with 50-ms passes.
    const double budget = kKernelShare * seconds_since(block);
    double spent = 0.0;
    do {
      kernel.push_back(reference_kernel());
      spent += kernel.back();
    } while (spent < budget);
    if (passes.size() >= 5000) break;
  }
  const double calibration = kReferenceNominalS / median(kernel);

  // Exactness self-check: on the simulator every pass is the same run, so
  // every count must repeat bit for bit.
  if (exact) {
    const PassResult& a = passes.front();
    for (const PassResult& b : passes) {
      const bool same =
          a.deliveries == b.deliveries && a.delay_p50_rtd == b.delay_p50_rtd &&
          a.delay_p99_rtd == b.delay_p99_rtd &&
          a.delay_samples == b.delay_samples &&
          a.control_bytes == b.control_bytes &&
          a.heap_allocs == b.heap_allocs && a.packets == b.packets &&
          a.end_rtd == b.end_rtd && a.failed == b.failed;
      if (!same) {
        std::printf("exactness check failed: counts differ across passes of "
                    "seed %llu\n",
                    static_cast<unsigned long long>(seed));
        print_result(false, a.offered, a.offered, {});
        return 1;
      }
    }
  }

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> rate;
  std::vector<double> wall_delay;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> ctrl;
  std::vector<double> allocs;
  std::vector<double> delivered;
  for (const PassResult& r : passes) {
    const double calibrated_s = r.wall_s * calibration;
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(r.delivered_all / calibrated_s);
    wall_delay.push_back(r.delay_p50_rtd * calibrated_s / r.end_rtd * 1e6);
    p50.push_back(r.delay_p50_rtd);
    p99.push_back(r.delay_p99_rtd);
    ctrl.push_back(ratio(static_cast<double>(r.control_bytes),
                         static_cast<double>(r.deliveries)));
    allocs.push_back(ratio(static_cast<double>(r.heap_allocs),
                           static_cast<double>(r.offered)));
    delivered.push_back(1.0 - ratio(static_cast<double>(r.failed),
                                    static_cast<double>(r.offered)));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  const PassResult& first = passes.front();
  std::printf("workload %s seed %llu: %zu timed passes, %lld offered, "
              "%llu deliveries, %.2f rtd, exact counts %s\n",
              w.name, static_cast<unsigned long long>(seed), passes.size(),
              static_cast<long long>(first.offered),
              static_cast<unsigned long long>(first.deliveries), first.end_rtd,
              exact ? "repeated" : "n/a (real clock)");
  std::printf("  delay samples %zu (message, member) pairs\n",
              first.delay_samples);
  std::printf("  calibration %.6f (reference kernel median %.6f s, "
              "nominal %.3f s)\n",
              calibration, median(kernel), kReferenceNominalS);
  print_spread("reference kernel", kernel, "s");
  print_spread("pass wall (raw)", wall, "s");
  print_spread("pass cpu (raw)", cpu, "s");
  print_spread("setup (raw)", setups, "s");
  print_spread("msgs_per_s", rate, "1/s");
  print_spread("wall_delay_p50_us", wall_delay, "us");

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const PassResult& r : passes) {
    attempted += r.offered;
    failed += r.failed;
  }
  print_result(true, attempted, failed,
               {{"msgs_per_s", median(rate), "1/s"},
                {"delay_p50_rtd", median(p50), "rtd"},
                {"delay_p99_rtd", median(p99), "rtd"},
                {"wall_delay_p50_us", median(wall_delay), "us"},
                {"control_bytes_per_delivery", median(ctrl), "B"},
                {"heap_allocs_per_msg", median(allocs), "count"},
                {"peak_rss_mb", rss_mb, "MB"},
                {"setup_s", median(setups) * calibration, "s"},
                {"delivered_frac", median(delivered), "frac"}});
  return 0;
}

// ---------------------------------------------------------------------------
// Traced mode.

struct TracedPass {
  PassResult result;
  std::uint64_t events = 0;
  LayerTotals run_until;
  LayerTotals sends;
  LayerTotals broadcasts;
  std::vector<double> round_us;
  std::map<std::string, std::uint64_t> counters;
  wire::BufferStats buffers;
  std::size_t history_peak = 0;
  std::size_t waiting_peak = 0;
};

constexpr const char* kCounters[] = {
    "net.packets_sent",         "net.packets_dropped",
    "net.decode_rejected",      "core.delta_fallbacks",
    "core.delta_anchor_miss",   "urcgc.decisions_made",
    "core.recovery_msgs",       "core.recovery_continuations",
    "core.recovery_budget_exhausted", "core.pipeline_eager_deliveries",
    "core.pipeline_stall_rounds", "runtime.mailbox_ring_overflow",
    "socket.tx_datagrams",      "socket.send_calls",
    "socket.rx_datagrams",      "socket.recv_calls",
    "socket.tx_dropped",        "socket.send_retries",
};

/// One pass of the self-assembled group. With `rec`, the pass is traced:
/// decorators, recordings and a registry are attached. Without, the same
/// assembly runs bare, which is the base of trace.overhead_frac.
TracedPass run_group(const harness::ExperimentConfig& config,
                     Recording* rec) {
  TracedPass out;
  obs::Registry registry(config.protocol.n);
  if (rec != nullptr) {
    rec->clear();
    rec->arrivals.resize(static_cast<std::size_t>(
        std::min(config.protocol.n, kReplayMembers)));
    g_spans.reset();
  }
  TraceObserver observer(rec);
  const wire::BufferStats buffers0 = wire::buffer_stats();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  bool quiescent = false;
  {
    Group group(config, &observer, rec != nullptr ? &registry : nullptr, rec);
    quiescent = group.run();
    if (group.socket != nullptr) group.socket->shutdown();
    out.result.wall_s = seconds_since(t0);
    out.result.cpu_s = cpu_seconds() - cpu0;
    out.result.heap_allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    out.buffers = wire::buffer_stats() - buffers0;
    if (group.sim != nullptr) out.events = group.sim->events_executed();
    for (std::size_t i = 1; i < group.round_starts_ns.size(); ++i) {
      out.round_us.push_back(static_cast<double>(group.round_starts_ns[i] -
                                                 group.round_starts_ns[i - 1]) /
                             1e3);
    }
    std::vector<std::span<const Mid>> logs;
    std::vector<bool> halted;
    std::vector<std::size_t> survivors;
    for (const auto& process : group.processes) {
      logs.emplace_back(process->mt().processing_log());
      halted.push_back(process->halted());
      if (!process->halted()) {
        survivors.push_back(process->mt().processing_log().size());
      }
      out.history_peak = std::max(out.history_peak, process->mt().history_peak());
      out.waiting_peak = std::max(out.waiting_peak, process->mt().waiting_peak());
    }
    const check::EndStateResult clauses =
        check::validate_end_state(observer.graph_, logs, halted);
    account(out.result, quiescent, clauses.all_ok(), group.load->submitted(),
            observer.discarded_, survivors);
    if (!clauses.violations.empty()) {
      out.result.why += ": " + clauses.violations.front();
    }
  }
  out.result.deliveries = observer.deliveries_;
  out.run_until = g_spans.totals(kRunUntil);
  out.sends = g_spans.totals(kSend);
  out.broadcasts = g_spans.totals(kBroadcast);
  for (const char* name : kCounters) {
    out.counters[name] = registry.counter_total(registry.find(name));
  }
  return out;
}

/// Per-layer costs measured by replaying one traced pass's recordings
/// through the core, causal and wire functions.
struct Replay {
  std::uint64_t frames = 0;
  std::int64_t decode_ns = 0;
  std::int64_t encode_ns = 0;
  std::uint64_t decisions = 0;
  std::int64_t digest_ns = 0;
  std::int64_t insert_ns = 0;
  std::uint64_t merges = 0;
  std::uint64_t merge_requests = 0;
  std::int64_t merge_ns = 0;
  std::uint64_t stores = 0;
  std::int64_t store_ns = 0;
  std::uint64_t ranges = 0;
  std::int64_t range_ns = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t parked = 0;
  std::int64_t add_ns = 0;
  std::uint64_t release_calls = 0;
  std::int64_t release_ns = 0;
  std::uint64_t wake_checks = 0;
  std::uint64_t releases = 0;
};

template <typename Fn>
std::int64_t timed_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

void replay_waiting_list(const std::vector<Recording::Arrival>& stream,
                         core::DecisionCache& cache, Replay& out) {
  causal::WaitingList waiting;
  std::set<Mid> processed;
  auto process = [&](const Mid& first) {
    std::vector<Mid> queue{first};
    while (!queue.empty()) {
      const Mid mid = queue.back();
      queue.pop_back();
      processed.insert(mid);
      std::vector<causal::PendingMessage> released;
      out.release_ns += timed_ns([&] { released = waiting.on_processed(mid); });
      ++out.release_calls;
      for (const causal::PendingMessage& m : released) queue.push_back(m.mid);
    }
  };
  auto arrive = [&](const core::AppMessage& msg) {
    if (processed.contains(msg.mid) || waiting.contains(msg.mid)) return;
    ++out.arrivals;
    std::vector<Mid> missing;
    for (const Mid& dep : msg.deps) {
      if (!processed.contains(dep)) missing.push_back(dep);
    }
    if (missing.empty()) {
      process(msg.mid);
      return;
    }
    ++out.parked;
    causal::PendingMessage pm{msg.mid, msg.deps, msg.generated_at, 0,
                              msg.payload};
    out.add_ns += timed_ns([&] { waiting.add(std::move(pm), missing); });
  };
  for (const Recording::Arrival& a : stream) {
    if (a.frame.empty()) {
      arrive(a.own);
      continue;
    }
    core::DecodeContext ctx{&cache, false};
    auto pdu = core::decode_pdu(a.frame, &ctx);
    if (!pdu) continue;
    if (const auto* msg = std::get_if<core::AppMessage>(&pdu.value())) {
      arrive(*msg);
    } else if (const auto* rsp = std::get_if<core::RecoverRsp>(&pdu.value())) {
      for (const core::AppMessage& m : rsp->messages) arrive(m);
    }
  }
  out.wake_checks += waiting.stats().wake_checks;
  out.releases += waiting.stats().releases;
}

Replay replay(const harness::ExperimentConfig& config, const Recording& rec) {
  Replay out;
  const core::Config& cfg = config.protocol;
  const std::size_t window = std::max<std::size_t>(
      64, core::DecisionCache::window_for(cfg));
  core::DecisionCache decode_cache(window);
  std::vector<core::Pdu> decoded;
  decoded.reserve(rec.frames.size());
  std::vector<ProcessId> dsts;
  for (const Recording::Frame& f : rec.frames) {
    core::DecodeContext ctx{&decode_cache, false};
    std::optional<Result<core::Pdu, wire::DecodeError>> pdu;
    out.decode_ns += timed_ns([&] { pdu.emplace(core::decode_pdu(f.bytes.view(), &ctx)); });
    ++out.frames;
    if (!pdu->has_value()) continue;
    decoded.push_back(std::move(*pdu).value());
    dsts.push_back(f.dst);
  }

  // Encode, digest, cache insert and coordinator merge over the decoded
  // stream, in send order.
  core::DecisionCache insert_cache(core::DecisionCache::window_for(cfg));
  core::Decision anchor = core::Decision::initial(cfg.n);
  std::map<std::pair<ProcessId, SubrunId>, std::vector<core::Request>> inbox;
  std::int64_t sink = 0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const core::Pdu& pdu = decoded[i];
    if (const auto* d = std::get_if<core::Decision>(&pdu)) {
      out.encode_ns += timed_ns([&] {
        sink += static_cast<std::int64_t>(
            core::encode_decision_pdu(*d, anchor, cfg).size());
      });
      out.digest_ns += timed_ns(
          [&] { sink += static_cast<std::int64_t>(core::decision_digest(*d) & 1U); });
      out.insert_ns += timed_ns([&] { insert_cache.insert(*d); });
      ++out.decisions;
      if (d->decided_at > anchor.decided_at) anchor = *d;
    } else if (const auto* rq = std::get_if<core::Request>(&pdu)) {
      out.encode_ns += timed_ns([&] {
        sink += static_cast<std::int64_t>(
            core::encode_request_pdu(*rq, cfg).size());
      });
      inbox[{dsts[i], rq->subrun}].push_back(*rq);
    } else {
      out.encode_ns += timed_ns([&] {
        sink += std::visit(
            [](const auto& v) {
              return static_cast<std::int64_t>(core::encode_pdu(v).size());
            },
            pdu);
      });
    }
  }
  for (auto& [key, requests] : inbox) {
    core::CoordinatorInputs inputs;
    inputs.subrun = key.second;
    inputs.coordinator = key.first;
    inputs.k_attempts = cfg.k_attempts;
    std::vector<const core::Decision*> candidates;
    for (const core::Request& rq : requests) {
      candidates.push_back(&rq.prev_decision);
    }
    inputs.base = core::freshest(candidates);
    out.merge_requests += requests.size();
    inputs.requests = std::move(requests);
    out.merge_ns += timed_ns([&] {
      sink += core::compute_decision(inputs).decided_at;
    });
    ++out.merges;
  }

  // History: member 0's processing stream, then every recovery range any
  // member asked for, against that history.
  core::History history(cfg.n);
  for (const core::AppMessage& msg : rec.delivered) {
    out.store_ns += timed_ns([&] { history.store(msg); });
    ++out.stores;
  }
  for (const core::Pdu& pdu : decoded) {
    if (const auto* rq = std::get_if<core::RecoverRq>(&pdu)) {
      out.range_ns += timed_ns([&] {
        sink += static_cast<std::int64_t>(
            history
                .range(rq->origin, rq->from_seq, rq->to_seq,
                       static_cast<std::size_t>(cfg.max_recover_batch))
                .size());
      });
      ++out.ranges;
    }
  }

  // Waiting list: each replayed member's arrival order.
  for (const auto& stream : rec.arrivals) {
    core::DecisionCache cache(window);
    replay_waiting_list(stream, cache, out);
  }
  if (sink == 42) std::printf(" ");  // keeps the timed calls observable
  return out;
}

int run_traced_mode(const Workload& w, std::uint64_t seed, double seconds,
                    const std::string& spans_dir) {
  const harness::ExperimentConfig config = make_config(w, seed);
  Recording rec;

  require_valid(run_group(config, nullptr).result, "warm-up");
  std::vector<double> untraced_wall;
  std::vector<double> untraced_cpu;
  std::vector<double> traced_wall;
  TracedPass last;
  const auto start = Clock::now();
  while (traced_wall.size() < 2 || seconds_since(start) < seconds) {
    const TracedPass base = run_group(config, nullptr);
    require_valid(base.result, "untraced");
    untraced_wall.push_back(base.result.wall_s);
    untraced_cpu.push_back(base.result.cpu_s);
    last = run_group(config, &rec);
    require_valid(last.result, "traced");
    traced_wall.push_back(last.result.wall_s);
    if (traced_wall.size() >= 100) break;
  }
  const Replay r = replay(config, rec);

  if (!spans_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spans_dir, ec);
    const auto path = std::filesystem::path(spans_dir) /
                      (std::string(w.name) + "_seed" + std::to_string(seed) +
                       ".spans.csv");
    g_spans.write_csv(path);
    std::printf("spans: %llu in the last traced pass, the first %llu "
                "written to %s\n",
                static_cast<unsigned long long>(g_spans.recorded()),
                static_cast<unsigned long long>(std::min<std::uint64_t>(
                    g_spans.recorded(), SpanSink::kMaxRecords)),
                path.c_str());
  }

  const auto deliveries = static_cast<double>(last.result.deliveries);
  const auto offered = static_cast<double>(last.result.offered);
  const double decisions_made =
      static_cast<double>(last.counters["urcgc.decisions_made"]);
  const auto c = [&](const char* name) {
    return static_cast<double>(last.counters[name]);
  };
  const bool delta = config.protocol.control_encoding ==
                     core::ControlEncoding::kDelta;
  // Digest calls the program makes: one per decoded decision-bearing frame
  // (cache insert at decode), one per applied decision (cache insert), one
  // per delta frame written (anchor reference).
  const auto rx = [&](core::PduType t) {
    return static_cast<double>(rec.rx_by_type[static_cast<std::size_t>(t)]);
  };
  std::uint64_t delta_sent = 0;
  std::uint64_t control_sent = 0;
  for (const Recording::Frame& f : rec.frames) {
    const std::uint8_t t = f.bytes.view().empty() ? 0 : f.bytes.view()[0];
    const auto type = static_cast<core::PduType>(t);
    if (type == core::PduType::kRequestDelta ||
        type == core::PduType::kDecisionDelta) {
      ++delta_sent;
    }
    if (type == core::PduType::kRequestDelta ||
        type == core::PduType::kDecisionDelta ||
        type == core::PduType::kRequest || type == core::PduType::kDecision) {
      ++control_sent;
    }
  }
  const double digest_calls =
      delta ? rx(core::PduType::kRequestDelta) + rx(core::PduType::kRequest) +
                  2.0 * (rx(core::PduType::kDecisionDelta) +
                         rx(core::PduType::kDecision)) +
                  static_cast<double>(delta_sent)
            : 0.0;
  const double digest_ns = ratio(static_cast<double>(r.digest_ns),
                                 static_cast<double>(r.decisions));
  const bool sim = last.events > 0;
  const auto sim_self_ns = static_cast<double>(last.run_until.self_ns);
  const double overhead = median(traced_wall) / median(untraced_wall) - 1.0;

  std::printf("workload %s seed %llu: %zu traced + %zu untraced passes, "
              "%.0f deliveries, %zu frames replayed\n",
              w.name, static_cast<unsigned long long>(seed), traced_wall.size(),
              untraced_wall.size(), deliveries, rec.frames.size());
  print_spread("untraced pass wall", untraced_wall, "s");
  print_spread("traced pass wall", traced_wall, "s");

  print_result(
      true, last.result.offered, last.result.failed,
      {{"sim.events_per_delivery",
        ratio(static_cast<double>(last.events), deliveries), "count"},
       {"sim.self_us_per_delivery", sim ? sim_self_ns / 1e3 / deliveries : 0.0,
        "us"},
       {"net.packets_per_delivery", ratio(c("net.packets_sent"), deliveries),
        "count"},
       {"net.drop_frac",
        ratio(c("net.packets_dropped"), c("net.packets_sent")), "frac"},
       {"net.send_us_per_delivery",
        static_cast<double>(last.sends.total_ns + last.broadcasts.total_ns) /
            1e3 / deliveries,
        "us"},
       {"wire.encode_ns_per_frame",
        ratio(static_cast<double>(r.encode_ns), static_cast<double>(r.frames)),
        "ns"},
       {"wire.decode_ns_per_frame",
        ratio(static_cast<double>(r.decode_ns), static_cast<double>(r.frames)),
        "ns"},
       {"wire.buffer_allocs_per_msg",
        ratio(static_cast<double>(last.buffers.allocations), offered),
        "count"},
       {"wire.bytes_allocated_per_delivery",
        ratio(static_cast<double>(last.buffers.bytes_allocated), deliveries),
        "B"},
       {"wire.decode_rejected", c("net.decode_rejected"), "count"},
       {"delta.digest_ns", digest_ns, "ns"},
       {"delta.digest_us_per_delivery",
        ratio(digest_ns * digest_calls / 1e3, deliveries), "us"},
       {"delta.cache_insert_ns",
        ratio(static_cast<double>(r.insert_ns),
              static_cast<double>(r.decisions)),
        "ns"},
       {"delta.fallback_frac",
        delta ? ratio(c("core.delta_fallbacks"),
                      static_cast<double>(control_sent))
              : 0.0,
        "frac"},
       {"delta.anchor_miss", c("core.delta_anchor_miss"), "count"},
       {"coordinator.merge_us_per_decision",
        ratio(static_cast<double>(r.merge_ns) / 1e3,
              static_cast<double>(r.merges)),
        "us"},
       {"coordinator.requests_per_decision",
        ratio(static_cast<double>(r.merge_requests), decisions_made), "count"},
       {"history.store_ns",
        ratio(static_cast<double>(r.store_ns), static_cast<double>(r.stores)),
        "ns"},
       {"history.range_ns",
        ratio(static_cast<double>(r.range_ns), static_cast<double>(r.ranges)),
        "ns"},
       {"history.peak_len", static_cast<double>(last.history_peak), "count"},
       {"causal.parked_frac",
        ratio(static_cast<double>(r.parked), static_cast<double>(r.arrivals)),
        "frac"},
       {"causal.waiting_peak", static_cast<double>(last.waiting_peak),
        "count"},
       {"causal.add_ns",
        ratio(static_cast<double>(r.add_ns), static_cast<double>(r.parked)),
        "ns"},
       {"causal.release_ns",
        ratio(static_cast<double>(r.release_ns),
              static_cast<double>(r.release_calls)),
        "ns"},
       {"causal.wake_checks_per_release",
        ratio(static_cast<double>(r.wake_checks),
              static_cast<double>(r.releases)),
        "count"},
       {"recovery.msgs_per_delivery", ratio(c("core.recovery_msgs"), deliveries),
        "count"},
       {"recovery.continuations", c("core.recovery_continuations"), "count"},
       {"recovery.budget_exhausted", c("core.recovery_budget_exhausted"),
        "count"},
       {"pipeline.eager_frac",
        ratio(c("core.pipeline_eager_deliveries"), deliveries), "frac"},
       {"pipeline.stall_rounds", c("core.pipeline_stall_rounds"), "count"},
       {"runtime.round_us_p50", median(last.round_us), "us"},
       {"runtime.round_us_p99", percentile(last.round_us, 0.99), "us"},
       {"socket.datagrams_per_delivery",
        ratio(c("socket.tx_datagrams"), deliveries), "count"},
       {"socket.datagrams_per_send_call",
        ratio(c("socket.tx_datagrams"), c("socket.send_calls")), "count"},
       {"socket.datagrams_per_recv_call",
        ratio(c("socket.rx_datagrams"), c("socket.recv_calls")), "count"},
       {"runtime.mailbox_ring_overflow", c("runtime.mailbox_ring_overflow"),
        "count"},
       {"socket.tx_dropped", c("socket.tx_dropped"), "count"},
       {"socket.send_retries", c("socket.send_retries"), "count"},
       {"process.cpu_us_per_delivery", median(untraced_cpu) * 1e6 / deliveries,
        "us"},
       {"process.heap_allocs_per_msg",
        ratio(static_cast<double>(last.result.heap_allocs), offered), "count"},
       {"failed_frac", ratio(static_cast<double>(last.result.failed), offered),
        "frac"},
       {"trace.overhead_frac", overhead, "frac"}});
  return 0;
}

/// Pins the whole process, and so every thread it starts, to one CPU (the
/// highest it may use). On a shared virtual machine a free-running round
/// barrier spread over several CPUs waits on the host to wake idle vCPUs:
/// socket passes swung between about 45 and 180 ms with the host's load.
/// On one CPU every wake-up is a local context switch, so a pass measures
/// the runtime's own work, and the calibration kernel shares that CPU.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      std::printf("pinned to cpu %d\n", cpu);
    }
    return;
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: urcgc_perfbench --workload=NAME --seed=S --seconds=T "
               "[--trace=0|1] [--spans-dir=DIR]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) usage();
    const std::string_view key = arg.substr(0, eq);
    const char* value = argv[i] + eq + 1;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage();
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--spans-dir") {
      spans_dir = value;
    } else {
      usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || !have_seed || seconds <= 0.0) usage();
  pin_to_one_cpu();
  return trace != 0 ? run_traced_mode(*w, seed, seconds, spans_dir)
                    : run_end_to_end(*w, seed, seconds);
}
