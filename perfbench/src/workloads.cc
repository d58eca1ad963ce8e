// The two benchmark workloads. Each drives the simulator only through its
// public functions and times every call from outside.
//
// Untraced run (opts.trace false): set up at least three times (setup_s is
// the median), repeat the workload's op for opts.seconds (run_s is the
// op's time on the quietest host the run saw), read the peak resident
// set, then run the output checks once and report end-to-end metrics.
//
// Traced run (opts.trace true): the same set-up and op, once untraced and
// once inside spans, then the per-layer probes: the framework call and
// bare kernel of each app the workload runs, the access-window replays,
// the host-pool dispatch, each instrument the workload attaches, alone
// against a detached run interleaved with it, and (web-migrate-observed)
// the serving layer.

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <type_traits>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "pmg/analytics/bc.h"
#include "pmg/analytics/bfs.h"
#include "pmg/analytics/cc.h"
#include "pmg/analytics/pagerank.h"
#include "pmg/analytics/reference.h"
#include "pmg/analytics/sssp.h"
#include "pmg/faultsim/fault_schedule.h"
#include "pmg/frameworks/framework.h"
#include "pmg/graph/csr_graph.h"
#include "pmg/graph/generators.h"
#include "pmg/graph/properties.h"
#include "pmg/memsim/machine_configs.h"
#include "pmg/metrics/metrics_session.h"
#include "pmg/runtime/runtime.h"
#include "pmg/serve/server.h"
#include "pmg/servetrace/servetrace.h"
#include "pmg/tierscope/tierscope.h"
#include "pmg/trace/json.h"
#include "pmg/trace/trace_session.h"
#include "pmg/whatif/explain.h"
#include "pmg/whatif/journal.h"

namespace pmg::perfbench {

using frameworks::App;
using frameworks::AppInputs;
using frameworks::AppRunResult;
using frameworks::FrameworkKind;
using frameworks::RunConfig;

namespace {

uint32_t Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Host width of the phased pricing pool. Two, not every vCPU: the
/// engine's passes wait for their slowest thread, so on a shared host
/// each extra thread adds exposure to other tenants. On a 4-vCPU VM,
/// width 2 ran pr-rmat-pmm as fast as width 4, with 45 s minima spread
/// by 0.06 against 0.18.
uint32_t DefaultHostWidth() { return std::min(Nproc(), 2u); }

/// Runs `op` (index 0, 1, ...) at least twice, and again while another op
/// as long as the last one would still end within `seconds` of host time;
/// returns each op's host seconds.
std::vector<double> RunTimed(double seconds,
                             const std::function<void(uint64_t)>& op) {
  std::vector<double> times;
  hostperf::WallTimer all;
  for (uint64_t i = 0;
       times.size() < 2 || all.Seconds() + times.back() <= seconds; ++i) {
    times.push_back(TimeIt([&] { op(i); }));
  }
  return times;
}

static_assert(std::has_unique_object_representations_v<memsim::MachineStats>,
              "MachineStats is compared bytewise");

/// Bytewise MachineStats equality. The two trace-attribution counters are
/// nonzero only while a trace sink is attached, so a detached-vs-attached
/// comparison leaves them out.
bool SameStats(memsim::MachineStats a, memsim::MachineStats b,
               bool ignore_trace_fields) {
  if (ignore_trace_fields) {
    a.trace_attributed_ns = b.trace_attributed_ns = 0;
    a.traced_epochs = b.traced_epochs = 0;
  }
  return std::memcmp(&a, &b, sizeof a) == 0;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : 100.0 * static_cast<double>(part) / whole;
}

double Ms(SimNs ns) { return static_cast<double>(ns) / 1e6; }

// --- Galois app layer: the framework call and the bare kernel ---

/// Apps with per-layer rows, in report order.
constexpr App kAllApps[] = {App::kPr, App::kBfs, App::kSssp, App::kCc,
                            App::kBc};

/// The page policy, layout and topology RunApp picks for Galois.
memsim::PagePolicy GaloisPolicy(App app) {
  memsim::PagePolicy p;
  p.placement = app == App::kBc || app == App::kPr
                    ? memsim::Placement::kBlocked
                    : memsim::Placement::kInterleaved;
  p.page_size = memsim::PageSizeClass::k2M;
  return p;
}

const graph::CsrTopology& GaloisTopology(App app, const AppInputs& in) {
  return app == App::kSssp ? in.weighted : in.base;
}

struct KernelRun {
  double materialize_s = 0;
  double kernel_s = 0;
  uint64_t rounds = 0;
  bool matches_reference = false;
};

template <typename T>
bool ExactlyMatches(const runtime::NumaArray<T>& got,
                    const std::vector<T>& want) {
  if (got.size() != want.size()) return false;
  for (size_t v = 0; v < want.size(); ++v) {
    if (got[v] != want[v]) return false;
  }
  return true;
}

bool NearlyMatches(const runtime::NumaArray<double>& got,
                   const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) return false;
  for (size_t v = 0; v < want.size(); ++v) {
    if (std::fabs(got[v] - want[v]) > tol * (1.0 + std::fabs(want[v]))) {
      return false;
    }
  }
  return true;
}

/// Materializes the graph as Galois would and runs the bare kernel on a
/// machine the harness owns, recording into `window` (may be null) from
/// the kernel's first epoch. Checks the output against analytics::Ref*.
KernelRun RunGaloisKernel(App app, const AppInputs& in, const RunConfig& cfg,
                          AccessWindow* window) {
  KernelRun out;
  memsim::Machine machine(cfg.machine);
  machine.SetHostPool(memsim::HostPool::ForWorkers(cfg.host_threads));
  WindowObserver observer(window);
  if (window != nullptr) machine.AddObserver(&observer);
  runtime::Runtime rt(&machine, cfg.threads);
  graph::GraphLayout layout;
  layout.policy = GaloisPolicy(app);
  layout.with_weights = app == App::kSssp;
  layout.load_in_edges = app == App::kPr;
  const graph::CsrTopology& topo = GaloisTopology(app, in);
  analytics::AlgoOptions opt;
  opt.label_policy = layout.policy;
  opt.pr_max_rounds = cfg.pr_max_rounds;
  {
    hostperf::WallTimer t;
    graph::CsrGraph g(&machine, topo, layout, "g");
    g.Prefault(cfg.threads);
    machine.CloseEpochIfOpen();
    out.materialize_s = t.Seconds();
    if (window != nullptr) window->StartAtNextEpoch();
    t.Reset();
    switch (app) {
      case App::kPr: {
        const auto r = analytics::PrPull(rt, g, opt);
        out.kernel_s = t.Seconds();
        out.rounds = r.rounds;
        out.matches_reference = NearlyMatches(
            r.rank,
            analytics::RefPagerank(topo, opt.pr_damping, opt.pr_tolerance,
                                   opt.pr_max_rounds),
            1e-6);
        break;
      }
      case App::kBfs: {
        const auto r = analytics::BfsSparseWl(rt, g, in.source, opt);
        out.kernel_s = t.Seconds();
        out.rounds = r.rounds;
        out.matches_reference =
            ExactlyMatches(r.level, analytics::RefBfs(topo, in.source));
        break;
      }
      case App::kSssp: {
        const auto r = analytics::SsspDeltaStep(rt, g, in.source, opt);
        out.kernel_s = t.Seconds();
        out.rounds = r.rounds;
        out.matches_reference =
            ExactlyMatches(r.dist, analytics::RefSssp(topo, in.source));
        break;
      }
      case App::kCc: {
        const auto r = analytics::CcLabelPropSCDir(rt, g, opt);
        out.kernel_s = t.Seconds();
        out.rounds = r.rounds;
        out.matches_reference =
            ExactlyMatches(r.label, analytics::RefCc(topo));
        break;
      }
      default: {  // App::kBc; the harness runs no other app.
        const auto r = analytics::BcSparse(rt, g, in.source, opt);
        out.kernel_s = t.Seconds();
        out.rounds = r.rounds;
        out.matches_reference = NearlyMatches(
            r.centrality, analytics::RefBc(topo, in.source), 1e-7);
        break;
      }
    }
    machine.CloseEpochIfOpen();
  }
  if (window != nullptr) machine.RemoveObserver(&observer);
  return out;
}

void AddAppRows(const std::string& name, double run_app_s, const KernelRun& k,
                RunOutput* out) {
  out->Add("frameworks.run_app_s." + name, run_app_s, "s", true);
  out->Add("analytics.kernel_s." + name, k.kernel_s, "s", true);
  out->Add("analytics.rounds." + name, static_cast<double>(k.rounds), "count",
           false);
}

/// Per-app layer probes on the workload's graph and machine: the detached
/// framework call and the bare kernel of each app in `apps`, each kernel
/// output checked; apps the workload does not run report 0. The kernel
/// stream of `window_app` is recorded into `window` (may be null).
/// Returns that app's graph materialization seconds.
double ProbeApps(const std::vector<App>& apps, const AppInputs& in,
                 const RunConfig& cfg, App window_app, AccessWindow* window,
                 Spans* spans, RunOutput* out) {
  double materialize_s = 0;
  for (const App app : kAllApps) {
    const std::string name = frameworks::AppName(app);
    double run_app_s = 0;
    KernelRun k;
    if (std::find(apps.begin(), apps.end(), app) != apps.end()) {
      {
        Scope s(spans, "frameworks.run_app." + name);
        run_app_s = TimeIt([&] {
          const AppRunResult r = RunApp(FrameworkKind::kGalois, app, in, cfg);
          out->checks.Op(r.supported && !r.crashed, "RunApp " + name);
        });
      }
      {
        Scope s(spans, "analytics.kernel." + name);
        k = RunGaloisKernel(app, in, cfg, app == window_app ? window : nullptr);
      }
      out->checks.Op(k.matches_reference,
                     name + " kernel output matches analytics::Ref" + name);
      if (app == window_app) materialize_s = k.materialize_s;
    }
    AddAppRows(name, run_app_s, k, out);
  }
  return materialize_s;
}

/// Accesses in a recorded window.
constexpr uint64_t kWindowAccesses = 2'000'000;

/// Replays the recorded window and the pool dispatch probe.
ReplayResult ProbeMemsim(const AccessWindow& window,
                         const memsim::MachineConfig& config,
                         const memsim::PagePolicy& policy, Spans* spans,
                         RunOutput* out) {
  ReplayResult r;
  {
    Scope s(spans, "memsim.replay");
    r = ReplayWindow(window, config, policy, Nproc());
  }
  out->checks.Op(r.ok && r.accesses > 0,
                 "access window replays at the recorded addresses");
  out->Print("memsim.window_accesses", static_cast<double>(r.accesses),
             "count", false);
  out->Add("memsim.access_ns", r.access_ns, "ns", true);
  out->Add("memsim.end_epoch_us", r.end_epoch_us, "us", true);
  out->Add("memsim.phased_x", r.phased_x, "x", true);
  out->Add("memsim.cpu_cache_ns", r.cpu_cache_ns, "ns", true);
  out->Add("memsim.tlb_ns", r.tlb_ns, "ns", true);
  out->Add("memsim.page_table_ns", r.page_table_ns, "ns", true);
  out->Add("memsim.near_mem_ns", r.near_mem_ns, "ns", true);
  out->Add("memsim.host_pool.dispatch_us", HostPoolDispatchUs(Nproc()), "us",
           true);
  return r;
}

/// Exact simulated counters of the workload's op.
struct SimCounts {
  uint64_t accesses = 0;
  double cpu_cache_hit_pct = 0;
  double tlb_miss_pct = 0;  ///< TLB misses per 100 accesses.
  double near_mem_hit_pct = 0;
  double local_pct = 0;
  uint64_t faults = 0;
  uint64_t epochs = 0;
  uint64_t bw_bound_epochs = 0;
  uint64_t migrations = 0;
  uint64_t shootdowns = 0;
};

SimCounts CountsOf(const memsim::MachineStats& s) {
  SimCounts c;
  c.accesses = s.accesses;
  c.cpu_cache_hit_pct = Pct(s.cpu_cache_hits, s.accesses);
  c.tlb_miss_pct = Pct(s.tlb_misses, s.accesses);
  c.near_mem_hit_pct = 100.0 * s.NearMemHitRate();
  c.local_pct = 100.0 * s.LocalAccessFraction();
  c.faults = s.minor_faults;
  c.epochs = s.epochs;
  c.bw_bound_epochs = s.bandwidth_bound_epochs;
  c.migrations = s.migrations;
  c.shootdowns = s.tlb_shootdowns;
  return c;
}

void AddCounts(const SimCounts& c, RunOutput* out) {
  auto count = [&](const char* name, double v) {
    out->Add(name, v, "count", false);
  };
  count("memsim.accesses", static_cast<double>(c.accesses));
  out->Add("memsim.cpu_cache_hit_pct", c.cpu_cache_hit_pct, "%", false);
  out->Add("memsim.tlb_miss_pct", c.tlb_miss_pct, "%", false);
  out->Add("memsim.near_mem_hit_pct", c.near_mem_hit_pct, "%", false);
  out->Add("memsim.local_pct", c.local_pct, "%", false);
  count("memsim.faults", static_cast<double>(c.faults));
  count("memsim.epochs", static_cast<double>(c.epochs));
  count("memsim.bw_bound_epochs", static_cast<double>(c.bw_bound_epochs));
  count("memsim.migrations", static_cast<double>(c.migrations));
  count("memsim.shootdowns", static_cast<double>(c.shootdowns));
}

/// The serving-layer metrics, zero on the batch workloads (which serve no
/// requests).
struct ServeFigures {
  double executions = 0, useful_pct = 0, retries = 0, timeouts = 0,
         shed = 0, degraded = 0, busy_pct = 0, p50_ms = 0, p99_ms = 0,
         miss_pct = 0, requests_per_s = 0, queue_p99_ms = 0,
         service_p99_ms = 0, recoveries = 0, recovery_ms = 0,
         overhead_x = 0;
};

void AddServe(const ServeFigures& f, RunOutput* out) {
  out->Add("serve.executions", f.executions, "count", false);
  out->Add("serve.useful_pct", f.useful_pct, "%", false);
  out->Add("serve.retries", f.retries, "count", false);
  out->Add("serve.timeouts", f.timeouts, "count", false);
  out->Add("serve.shed", f.shed, "count", false);
  out->Add("serve.degraded", f.degraded, "count", false);
  out->Add("serve.busy_pct", f.busy_pct, "%", false);
  out->Add("serve.p50_ms", f.p50_ms, "ms", false);
  out->Add("serve.p99_ms", f.p99_ms, "ms", false);
  out->Add("serve.miss_pct", f.miss_pct, "%", false);
  out->Add("serve.requests_per_s", f.requests_per_s, "1/s", true);
  out->Add("servetrace.queue_p99_ms", f.queue_p99_ms, "ms", false);
  out->Add("servetrace.service_p99_ms", f.service_p99_ms, "ms", false);
  out->Add("faultsim.recoveries", f.recoveries, "count", false);
  out->Add("faultsim.recovery_ms", f.recovery_ms, "ms", false);
  out->Add("servetrace.overhead_x", f.overhead_x, "x", true);
}

/// Host time of `attached` over `detached`, run in alternating pairs
/// until the detached side has taken at least kMinProbeSeconds.
constexpr double kMinProbeSeconds = 0.5;
double PairRatio(const std::function<void()>& detached,
                 const std::function<void()>& attached) {
  double d = 0, a = 0;
  do {
    d += TimeIt(detached);
    a += TimeIt(attached);
  } while (d < kMinProbeSeconds);
  return a / d;
}

const std::vector<std::string> kBatchInstruments = {
    "trace", "metrics", "whatif", "tierscope", "sancheck"};

/// Cost of each batch instrument on one RunApp: attached alone, with
/// fresh sessions and its reports built in memory, against a detached run
/// just before it.
void ProbeBatchInstruments(App app, const AppInputs& in, const RunConfig& base,
                           Spans* spans, RunOutput* out) {
  for (const std::string& name : kBatchInstruments) {
    bool checked = false;
    auto attached = [&] {
      trace::TraceSession ts;
      metrics::MetricsSession ms;
      whatif::JournalRecorder jr;
      tierscope::TierScope tsc;
      RunConfig cfg = base;
      if (name == "trace") cfg.trace = &ts;
      if (name == "metrics") cfg.metrics = &ms;
      if (name == "whatif") cfg.journal = &jr;
      if (name == "tierscope") cfg.tierscope = &tsc;
      if (name == "sancheck") cfg.sanitize = true;
      const AppRunResult r = RunApp(FrameworkKind::kGalois, app, in, cfg);
      if (name == "trace") {
        (void)ts.report().ToJson();
        (void)ts.ChromeTraceJson();
      } else if (name == "metrics") {
        (void)ms.ReportJson();
        (void)ms.PrometheusText();
      } else if (name == "whatif") {
        trace::JsonWriter w;
        whatif::WriteExplainJson(whatif::BuildExplainReport(jr.journal()), &w);
      } else if (name == "tierscope") {
        (void)tsc.report().ToJson();
        (void)tsc.BuildMisplacementReport(nullptr, nullptr).ToJson();
      }
      if (checked) return;
      checked = true;
      out->checks.Op(r.supported && !r.crashed && r.sancheck.races == 0,
                     name + " attached run completes race-free");
    };
    Scope s(spans, name + ".probe");
    const double x = PairRatio(
        [&] { RunApp(FrameworkKind::kGalois, app, in, base); }, attached);
    out->Add(name + ".overhead_x", x, "x", true);
  }
}

/// Overhead rows of the batch instruments where the workload attaches none.
void AddNoBatchInstruments(RunOutput* out) {
  for (const std::string& name : kBatchInstruments) {
    out->Add(name + ".overhead_x", 0, "x", true);
  }
}

void AddWorklist(uint64_t pushes, uint64_t steals, RunOutput* out) {
  out->Add("runtime.worklist_pushes", static_cast<double>(pushes), "count",
           false);
  out->Add("runtime.worklist_steals", static_cast<double>(steals), "count",
           false);
}

/// Set-up repeated at least three times and for at least
/// kMinSetupSeconds, keeping the last; setup_s is the median total, and
/// the traced run adds the median generate/prepare split.
constexpr double kMinSetupSeconds = 1.0;
template <typename T>
T RepeatedSetup(const Options& opts,
                const std::function<T(double* gen_s, double* prep_s)>& setup,
                Spans* spans, RunOutput* out) {
  std::vector<double> total, gen, prep;
  std::optional<T> kept;
  hostperf::WallTimer all;
  while (total.size() < 3 || all.Seconds() < kMinSetupSeconds) {
    kept.reset();
    Scope s(spans, "setup");
    double g = 0, p = 0;
    total.push_back(TimeIt([&] { kept.emplace(setup(&g, &p)); }));
    gen.push_back(g);
    prep.push_back(p);
  }
  out->Print("setups", static_cast<double>(total.size()), "count", false);
  if (opts.trace) {
    out->Add("graph.generate_s", Median(gen), "s", true);
    out->Add("graph.prepare_s", Median(prep), "s", true);
  } else {
    out->Add("setup_s", Median(total), "s", true);
  }
  return std::move(*kept);
}

/// End-to-end metrics shared by every workload. Every timed op is checked
/// to repeat the first byte for byte, so ops differ only in the host noise
/// they met, which only ever adds time: `run_s` is the op's time on the
/// quietest host the run saw (the fastest op, or the sum of each part's
/// fastest repeat). On a shared host, slow episodes last tens of seconds
/// and shift a median with them.
void AddEndToEnd(const std::vector<double>& op_s, double run_s,
                 double peak_rss_mb, uint64_t accesses, SimNs sim_ns,
                 RunOutput* out) {
  out->Add("run_s", run_s, "s", true);
  out->Add("accesses_per_s", static_cast<double>(accesses) / run_s, "1/s",
           true);
  out->Add("peak_rss_mb", peak_rss_mb, "MiB", true);
  out->Add("sim_ms", Ms(sim_ns), "ms", false);
  out->Print("ops_timed", static_cast<double>(op_s.size()), "count", false);
  out->Print("run_s.median", Median(op_s), "s", true);
  out->Print("run_s.max", *std::max_element(op_s.begin(), op_s.end()), "s",
             true);
}

/// The traced op against an untraced one in the same process.
void AddTraceOverhead(double untraced_s, double traced_s, RunOutput* out) {
  out->Add("bench.trace_overhead_x", traced_s / untraced_s, "x", true);
}

}  // namespace

// ---------------------------------------------------------------------------
// pr-rmat-pmm: Galois PageRank, 5 rounds, 96 virtual threads, on the rmat32
// stand-in, Optane memory mode, migration off, no instruments.

void RunPrRmatPmm(const Options& opts, RunOutput* out) {
  Spans spans(opts.trace);
  const AppInputs in = RepeatedSetup<AppInputs>(
      opts,
      [&](double* gen_s, double* prep_s) {
        graph::CsrTopology topo;
        *gen_s = TimeIt([&] { topo = graph::Rmat(18, 16, opts.seed); });
        AppInputs prepared;
        *prep_s = TimeIt([&] {
          prepared = AppInputs::Prepare(std::move(topo), 4295ull * 1000 * 1000);
        });
        return prepared;
      },
      &spans, out);

  RunConfig cfg;
  cfg.machine = memsim::OptanePmmConfig();
  cfg.machine.migration.enabled = false;
  cfg.threads = 96;
  cfg.pr_max_rounds = 5;
  cfg.host_threads = DefaultHostWidth();

  std::optional<AppRunResult> first;
  auto op = [&](uint64_t i) {
    spans.SetOp(i);
    Scope s(&spans, "op");
    AppRunResult r;
    {
      Scope f(&spans, "frameworks.run_app.pr");
      r = RunApp(FrameworkKind::kGalois, App::kPr, in, cfg);
    }
    const bool ok = r.supported && !r.crashed && r.rounds == 5;
    if (!first.has_value()) {
      out->checks.Op(ok, "pagerank completes 5 rounds");
      first = r;
    } else {
      out->checks.Op(ok && r.time_ns == first->time_ns &&
                         SameStats(r.stats, first->stats, false),
                     "repeated op is byte-identical");
    }
  };
  // Host width 1 against the default width: byte-identical simulation.
  auto check_width = [&]() {
    RunConfig serial = cfg;
    serial.host_threads = 1;
    const AppRunResult r =
        RunApp(FrameworkKind::kGalois, App::kPr, in, serial);
    out->checks.Op(r.time_ns == first->time_ns &&
                       SameStats(r.stats, first->stats, false),
                   "host width 1 and the default width agree byte for byte");
  };

  if (!opts.trace) {
    const std::vector<double> op_s = RunTimed(opts.seconds, op);
    const double peak_rss_mb = PeakRssMb();
    check_width();
    AddEndToEnd(op_s, *std::min_element(op_s.begin(), op_s.end()),
                peak_rss_mb, first->stats.accesses, first->time_ns, out);
    return;
  }

  const double untraced_s = TimeIt(
      [&] { RunApp(FrameworkKind::kGalois, App::kPr, in, cfg); });
  const double traced_s = TimeIt([&] { op(0); });
  AddTraceOverhead(untraced_s, traced_s, out);
  check_width();
  AddCounts(CountsOf(first->stats), out);

  spans.SetOp(1);
  AccessWindow window(kWindowAccesses);
  out->Add("graph.materialize_s",
           ProbeApps({App::kPr}, in, cfg, App::kPr, &window, &spans, out), "s",
           true);
  ProbeMemsim(window, cfg.machine, GaloisPolicy(App::kPr), &spans, out);
  // No instruments, hence no worklist counts (they come from a metrics
  // session) and no reports.
  AddNoBatchInstruments(out);
  AddWorklist(0, 0, out);
  out->Add("scenarios.report_s", 0, "s", true);
  AddServe(ServeFigures{}, out);
  out->spans_json = spans.ToJson();
}

// ---------------------------------------------------------------------------
// The serving layer, probed in web-migrate-observed's traced run: one
// Server::Run over an open-loop Poisson trace on a weighted Kron(11,16)
// graph, DRAM-only machine, one crash@access fault mid-run.

namespace {

/// Requests of the serving run whose simulated results are reported: at
/// least 1,000 answered, so p99 has ten samples beyond it.
constexpr uint64_t kServeRequests = 1500;
/// Requests of each run of the tracer-overhead probe.
constexpr uint64_t kServeProbeRequests = 750;
/// Media op at which the process crashes in a full run: about mid-run (a
/// 1,500-request run issues about 57 M media ops). Shorter runs crash at
/// the same share of their requests.
constexpr uint64_t kServeCrashAccess = 28'000'000;

serve::ServeConfig ServeCfg(uint64_t seed, uint64_t requests) {
  serve::ServeConfig sc;
  sc.machine = memsim::DramOnlyConfig();
  sc.workload.arrival = serve::ArrivalKind::kPoisson;
  sc.workload.qps = 2000;
  sc.workload.requests = requests;
  sc.workload.deadline_ns = 5'000'000;
  sc.workload.seed = seed;
  std::string error;
  const uint64_t crash_access = kServeCrashAccess * requests / kServeRequests;
  const bool parsed = faultsim::FaultSchedule::Parse(
      "crash@access:" + std::to_string(crash_access) + ";seed=42", &sc.faults,
      &error);
  PMG_CHECK_MSG(parsed, "%s", error.c_str());
  sc.host_workers = DefaultHostWidth();
  return sc;
}

/// A served run that finished, crashed once and conserves busy + idle +
/// recovery time.
bool ServedCleanly(const serve::ServeReport& rep) {
  return rep.finished && rep.Conserves() && rep.crashes == 1;
}

/// The serving scenario's simulated results, its checks (conservation, one
/// crash, at least 1,000 answered, report byte-identical with a ServeTracer
/// attached) and the tracer's host overhead.
void ProbeServe(uint64_t seed, Spans* spans, RunOutput* out) {
  graph::CsrTopology topo = graph::Kron(11, 16, seed);
  graph::AssignRandomWeights(&topo, 100, seed);
  const serve::ServeConfig cfg = ServeCfg(seed, kServeRequests);

  serve::ServeReport full;
  double full_s = 0;
  {
    Scope s(spans, "serve.run");
    full_s = TimeIt([&] { full = serve::Server(topo, cfg).Run(); });
  }
  const uint64_t answered = full.completed + full.completed_degraded;
  out->checks.Op(ServedCleanly(full) && answered >= 1000,
                 "serving run finishes, crashes once, conserves busy + idle "
                 "+ recovery, and answers at least 1,000 requests");

  servetrace::ServeTracer tracer;
  serve::ServeReport traced;
  {
    Scope s(spans, "serve.run.traced");
    serve::ServeConfig sc = cfg;
    sc.observer = &tracer;
    traced = serve::Server(topo, sc).Run();
  }
  out->checks.Op(traced.ToJson() == full.ToJson(),
                 "serve report is byte-identical with a ServeTracer attached");
  const servetrace::ServeTailReport tail = servetrace::BuildTailReport(tracer);

  ServeFigures f;
  uint64_t executions = 0;
  for (const serve::RequestRecord& r : full.records) executions += r.attempts;
  f.executions = static_cast<double>(executions);
  f.useful_pct = Pct(answered, executions);
  f.retries = static_cast<double>(full.retries);
  f.timeouts = static_cast<double>(full.timeouts);
  f.shed = static_cast<double>(full.shed);
  f.degraded = static_cast<double>(full.completed_degraded);
  f.busy_pct = Pct(full.busy_ns, full.total_ns);
  f.p50_ms = Ms(full.p50_ns);
  f.p99_ms = Ms(full.p99_ns);
  f.miss_pct = full.deadline_miss_pct;
  f.requests_per_s = kServeRequests / full_s;
  for (const servetrace::TailQuantileRow& row : tail.rows) {
    if (row.all && row.quantile == "p99") {
      f.queue_p99_ms = Ms(row.parts.queue_ns);
      f.service_p99_ms = Ms(row.parts.service_ns + row.parts.degraded_ns +
                            row.parts.hedge_ns);
    }
  }
  f.recoveries = static_cast<double>(full.recoveries);
  f.recovery_ms = Ms(full.recovery_ns);
  {
    Scope s(spans, "servetrace.probe");
    const serve::ServeConfig probe = ServeCfg(seed, kServeProbeRequests);
    f.overhead_x = PairRatio([&] { serve::Server(topo, probe).Run(); },
                             [&] {
                               // A fresh tracer per run: each Server::Run
                               // is a new serve timeline.
                               servetrace::ServeTracer t;
                               serve::ServeConfig sc = probe;
                               sc.observer = &t;
                               serve::Server(topo, sc).Run();
                             });
  }
  AddServe(f, out);
  out->Print("serve.sim_ms", Ms(full.total_ns), "ms", false);
}

}  // namespace

// ---------------------------------------------------------------------------
// web-migrate-observed: Galois bfs, sssp, cc and bc on the clueweb12
// stand-in, Optane with migration on, trace + metrics + whatif journal +
// tierscope attached and their reports built in memory.

namespace {

constexpr App kWebApps[] = {App::kBfs, App::kSssp, App::kCc, App::kBc};

struct WebOpResult {
  bool ok = true;
  SimNs sim_ns = 0;
  memsim::MachineStats stats;  ///< Summed over the four apps.
  uint64_t report_hash = kFnvBasis;
  double report_s = 0;
  uint64_t worklist_pushes = 0;
  uint64_t worklist_steals = 0;
  /// Host seconds of each app (its RunApp and reports), in kWebApps order.
  std::vector<double> app_s;
};

void Accumulate(const memsim::MachineStats& s, memsim::MachineStats* sum) {
  constexpr size_t kWords = sizeof(memsim::MachineStats) / sizeof(uint64_t);
  uint64_t add[kWords];
  uint64_t acc[kWords];
  std::memcpy(add, &s, sizeof add);
  std::memcpy(acc, sum, sizeof acc);
  for (size_t i = 0; i < kWords; ++i) acc[i] += add[i];
  std::memcpy(sum, acc, sizeof acc);
}

WebOpResult RunWebOp(const AppInputs& in, const RunConfig& base,
                     bool instruments, Spans* spans) {
  WebOpResult out;
  for (const App app : kWebApps) {
    const hostperf::WallTimer app_timer;
    const std::string name = frameworks::AppName(app);
    trace::TraceSession ts;
    metrics::MetricsSession ms;
    whatif::JournalRecorder jr;
    tierscope::TierScope tsc;
    RunConfig cfg = base;
    if (instruments) {
      cfg.trace = &ts;
      cfg.metrics = &ms;
      cfg.journal = &jr;
      cfg.tierscope = &tsc;
    }
    AppRunResult r;
    {
      Scope s(spans, "frameworks.run_app." + name);
      r = RunApp(FrameworkKind::kGalois, app, in, cfg);
    }
    out.ok = out.ok && r.supported && !r.crashed;
    out.sim_ns += r.time_ns;
    Accumulate(r.stats, &out.stats);
    if (!instruments) {
      out.app_s.push_back(app_timer.Seconds());
      continue;
    }
    // What pmg_run --trace --metrics --explain --tierscope builds, kept in
    // memory.
    Scope s(spans, "scenarios.report");
    hostperf::WallTimer t;
    const metrics::HeatReport heat = ms.BuildHeatReport();
    trace::JsonWriter explain;
    whatif::WriteExplainJson(whatif::BuildExplainReport(jr.journal()),
                             &explain);
    for (const std::string& doc :
         {ts.report().ToJson(), ts.ChromeTraceJson(&tsc), ms.ReportJson(),
          explain.str(), tsc.report().ToJson(),
          tsc.BuildMisplacementReport(&heat, &jr.journal()).ToJson()}) {
      out.report_hash = Fnv(out.report_hash, doc);
    }
    out.report_s += t.Seconds();
    out.ok = out.ok && ts.report().Conserves() && tsc.report().Conserves();
    if (!ms.snapshots().empty()) {
      out.worklist_pushes += ms.snapshots().back().worklist_pushes;
      out.worklist_steals += ms.snapshots().back().worklist_steals;
    }
    out.app_s.push_back(app_timer.Seconds());
  }
  return out;
}

}  // namespace

void RunWebMigrateObserved(const Options& opts, RunOutput* out) {
  Spans spans(opts.trace);
  const AppInputs in = RepeatedSetup<AppInputs>(
      opts,
      [&](double* gen_s, double* prep_s) {
        graph::WebCrawlParams p;
        p.vertices = 58000;
        p.avg_out_degree = 44;
        p.communities = 40;
        p.tail_length = 500;
        p.hubs = 4;
        p.seed = opts.seed;
        graph::CsrTopology topo;
        *gen_s = TimeIt([&] { topo = graph::WebCrawl(p); });
        AppInputs prepared;
        *prep_s = TimeIt([&] {
          prepared = AppInputs::Prepare(std::move(topo), 978ull * 1000 * 1000);
        });
        return prepared;
      },
      &spans, out);

  RunConfig cfg;
  cfg.machine = memsim::OptanePmmConfig();
  cfg.machine.migration.enabled = true;
  cfg.threads = 96;
  cfg.host_threads = DefaultHostWidth();

  std::optional<WebOpResult> first;
  // Per app, its fastest repeat: the apps are independent calls, so each
  // part of the op gets every repeat's chance at a quiet host.
  std::vector<double> fastest_app_s(std::size(kWebApps),
                                    std::numeric_limits<double>::infinity());
  auto op = [&](uint64_t i) {
    spans.SetOp(i);
    Scope s(&spans, "op");
    WebOpResult r = RunWebOp(in, cfg, /*instruments=*/true, &spans);
    for (size_t a = 0; a < fastest_app_s.size(); ++a) {
      fastest_app_s[a] = std::min(fastest_app_s[a], r.app_s[a]);
    }
    if (!first.has_value()) {
      out->checks.Op(r.ok, "instrumented apps complete and conserve");
      first = r;
    } else {
      out->checks.Op(r.ok && r.sim_ns == first->sim_ns &&
                         SameStats(r.stats, first->stats, false) &&
                         r.report_hash == first->report_hash,
                     "repeated op and its reports are byte-identical");
    }
  };
  // Detached against instrumented: byte-identical simulation.
  auto check_detached = [&]() {
    Spans none(false);
    const WebOpResult d = RunWebOp(in, cfg, /*instruments=*/false, &none);
    out->checks.Op(d.ok && d.sim_ns == first->sim_ns &&
                       SameStats(d.stats, first->stats, true),
                   "detached and instrumented runs agree byte for byte");
  };

  if (!opts.trace) {
    const std::vector<double> op_s = RunTimed(opts.seconds, op);
    const double peak_rss_mb = PeakRssMb();
    check_detached();
    double run_s = 0;
    for (const double app_s : fastest_app_s) run_s += app_s;
    AddEndToEnd(op_s, run_s, peak_rss_mb, first->stats.accesses,
                first->sim_ns, out);
    return;
  }

  Spans none(false);
  const double untraced_s =
      TimeIt([&] { RunWebOp(in, cfg, /*instruments=*/true, &none); });
  const double traced_s = TimeIt([&] { op(0); });
  AddTraceOverhead(untraced_s, traced_s, out);
  check_detached();
  AddCounts(CountsOf(first->stats), out);
  AddWorklist(first->worklist_pushes, first->worklist_steals, out);
  out->Add("scenarios.report_s", first->report_s, "s", true);

  spans.SetOp(1);
  AccessWindow window(kWindowAccesses);
  out->Add("graph.materialize_s",
           ProbeApps({std::begin(kWebApps), std::end(kWebApps)}, in, cfg,
                     App::kBc, &window, &spans, out),
           "s", true);
  ProbeMemsim(window, cfg.machine, GaloisPolicy(App::kBc), &spans, out);
  ProbeBatchInstruments(App::kBfs, in, cfg, &spans, out);
  ProbeServe(opts.seed, &spans, out);
  out->spans_json = spans.ToJson();
}

}  // namespace pmg::perfbench
