// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--launch-t0-ns <ns>]
//   perfbench --self-test      feeds every checker a corrupted output
//   perfbench --capacity       times a CPU-bound loop on 1 and nproc threads
//
// Closed loop with one client: a job runs the whole program mix once on one
// live Runtime at p = 4, and the next job starts only after the previous one
// has been verified. The workloads differ only in the transport beneath the
// same jobs (see kWorkloads). exchange_shm_p4 runs as four rank processes
// under `bsp_launch -p 4 --transport shm`; rank 0 reports. run.py builds the
// driver, launches it and prints the result; the driver prints one JSON line
// (metrics + detail) as the last line of rank 0's stdout.
//
// With --trace 0 the whole window is untraced and collect_stats is off:
// those numbers are the end-to-end metrics. With --trace 1 the first half of
// the window is untraced, then a fresh Runtime with collect_stats on runs the
// second half with benchmark-side spans; the per-layer metrics come from
// that half, and their difference in job_p50 is the tracing overhead.
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/collectives.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "cost/predictor.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  gbsp::DeliveryStrategy delivery;
  bool process_mode;
};
constexpr std::array<Workload, 3> kWorkloads = {{
    {"apps_deferred_p4", gbsp::DeliveryStrategy::Deferred, false},
    {"exchange_socket_p4", gbsp::DeliveryStrategy::Socket, false},
    {"exchange_shm_p4", gbsp::DeliveryStrategy::Shm, true},
}};
constexpr int kRanks = 4;
constexpr int kSetupReps = 9;  // setup_s is the median of these
// A round of sequential references (each app once) runs before the first
// job and then between jobs every kRefEveryNs, so the single-thread samples
// span the same window as the BSP runs; their medians feed speedup.
constexpr std::int64_t kRefEveryNs = 1'000'000'000;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

const char* const kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
    "                 --out <dir> [--launch-t0-ns <ns>]\n"
    "       perfbench --self-test\n"
    "       perfbench --capacity\n"
    "workloads: apps_deferred_p4 exchange_socket_p4 exchange_shm_p4\n"
    "exchange_shm_p4 must run under: bsp_launch -p 4 --transport shm -- ...\n";

enum class Mode { Run, SelfTest, Capacity, Help };

struct Args {
  Mode mode = Mode::Run;
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out;
  std::int64_t launch_t0_ns = 0;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& v,
                        std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || errno != 0 || *end != '\0' || x < lo ||
      x > hi) {
    throw UsageError(flag + " expects an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got \"" + v + "\"");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};  // workload seed seconds trace
  int modes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      a.mode = Mode::Help;
      return a;
    } else if (flag == "--self-test") {
      a.mode = Mode::SelfTest;
      ++modes;
    } else if (flag == "--capacity") {
      a.mode = Mode::Capacity;
      ++modes;
    } else if (flag == "--workload") {
      const std::string v = value();
      for (const auto& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) throw UsageError("unknown workload \"" + v + "\"");
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value(), 0, ~std::uint64_t{0} >> 1);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_u64(flag, value(), 1, 600));
      have[2] = true;
    } else if (flag == "--trace") {
      a.trace = parse_u64(flag, value(), 0, 1) == 1;
      have[3] = true;
    } else if (flag == "--out") {
      a.out = value();
      if (a.out.empty()) throw UsageError("--out needs a directory");
    } else if (flag == "--launch-t0-ns") {
      a.launch_t0_ns = static_cast<std::int64_t>(
          parse_u64(flag, value(), 1, ~std::uint64_t{0} >> 1));
    } else {
      throw UsageError("unknown argument \"" + flag + "\"");
    }
  }
  const bool any_run_flag =
      have[0] || have[1] || have[2] || have[3] || !a.out.empty();
  if (modes > 1 || (modes == 1 && any_run_flag)) {
    throw UsageError("--self-test and --capacity take no other arguments");
  }
  if (modes == 0 && !(have[0] && have[1] && have[2] && have[3] && !a.out.empty())) {
    throw UsageError("--workload, --seed, --seconds, --trace and --out are required");
  }
  return a;
}

// ---------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  const std::size_t k = n - 11;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  t.beyond = n - 1 - k;
  return t;
}

/// job_tail_ms: the window's jobs, in the order they ran, cut into
/// kTailBlocks equal blocks; the median of the blocks' tail_of. A burst of
/// load from the shared host that spans fewer than half the blocks leaves
/// it where it was, where one tail over the whole window would jump.
constexpr std::size_t kTailBlocks = 5;
Tail block_tail(const std::vector<double>& in_order) {
  const std::size_t n = in_order.size();
  if (n < kTailBlocks) return tail_of(in_order);
  std::vector<Tail> tails;
  for (std::size_t b = 0; b < kTailBlocks; ++b) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(b * n / kTailBlocks);
    const auto last = in_order.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / kTailBlocks);
    tails.push_back(tail_of(std::vector<double>(first, last)));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& x, const Tail& y) { return x.value < y.value; });
  return tails[kTailBlocks / 2];
}

// ---------------------------------------------------------------- JSON out

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::string l = "[";
  for (double x : v) {
    if (l.size() > 1) l += ',';
    l += json_num(x);
  }
  return l + "]";
}

class JsonObj {
 public:
  JsonObj& raw(const std::string& k, const std::string& v) {
    s_ += (s_.empty() ? "{" : ",") + json_str(k) + ":" + v;
    return *this;
  }
  JsonObj& num(const std::string& k, double v) { return raw(k, json_num(v)); }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  [[nodiscard]] std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---------------------------------------------------------------- the bench

/// The parts of one run's RunStats the per-layer metrics read.
struct StatsSummary {
  double wall_s = 0.0;
  double W_s = 0.0;
  double total_work_s = 0.0;
  double ranks = 0.0;  ///< ranks the stats cover (1 in process mode)
  std::uint64_t S = 0;
  std::uint64_t H = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_syscalls = 0;
  std::uint64_t wire_zc_bytes = 0;
};
StatsSummary summarize(const gbsp::RunStats& s) {
  return {s.wall_s,
          s.W_s(),
          s.total_work_s(),
          static_cast<double>(s.traces.size()),
          s.S(),
          s.H(),
          s.total_bytes(),
          s.total_wire_bytes(),
          s.total_wire_syscalls(),
          s.total_wire_zc_bytes()};
}

/// One timed job: the wall of the whole mix and of each Runtime::run.
struct JobRecord {
  double ms = 0.0;
  bool failed = false;
  std::array<double, kNumProgs> run_ms{};
  std::array<std::uint64_t, kNumProgs> run_span{};
  std::array<StatsSummary, kNumProgs> stats{};  ///< traced jobs only
};

struct Window {
  std::vector<JobRecord> jobs;
  std::size_t failed = 0;
  std::string first_error;
  std::size_t fresh_allocations = 0;

  [[nodiscard]] std::vector<double> ok_job_ms() const {
    std::vector<double> v;
    for (const auto& j : jobs) {
      if (!j.failed) v.push_back(j.ms);
    }
    return v;
  }
  [[nodiscard]] std::vector<double> run_ms(Prog prog) const {
    std::vector<double> v;
    for (const auto& j : jobs) {
      if (!j.failed) v.push_back(j.run_ms[static_cast<std::size_t>(prog)]);
    }
    return v;
  }
};

/// What the ranks exchange after each job in process mode: their local
/// check counts and rank 0's decision whether the window goes on.
struct Control {
  std::array<std::uint64_t, kNumProgs> mismatches;
  std::array<std::uint64_t, kNumProgs> covered;
  std::uint64_t recoveries;
  std::uint64_t go_on;
  std::uint64_t refs_due;
};

class Bench {
 public:
  /// `driver_track` is the tracer track of this process's driver spans.
  Bench(const Workload& wl, std::uint64_t seed, int rank, gbsp::Config cfg,
        int driver_track)
      : wl_(wl),
        seed_(seed),
        rank_(rank),
        cfg_(std::move(cfg)),
        driver_track_(driver_track) {}

  [[nodiscard]] bool process_mode() const { return wl_.process_mode; }
  [[nodiscard]] int p() const { return cfg_.nprocs; }

  /// Input generation, partitioning, Runtime construction and one warm-up
  /// job; returns its seconds.
  double setup_once() {
    const std::int64_t t0 = now_ns();
    in_ = make_inputs(seed_, p());
    make_runtime(false, nullptr);
    out_.reset(in_);
    run_job(-1, nullptr, nullptr);
    return 1e-9 * static_cast<double>(now_ns() - t0);
  }

  /// Computes every sequential reference (the checks compare against them).
  void compute_references() {
    for (int a = 0; a < kNumApps; ++a) run_reference(static_cast<Prog>(a), in_, refs_);
  }

  /// Times one round of sequential references on rank 0's thread while any
  /// other rank processes wait in a barrier run; then one untimed job brings
  /// the ranks back into step (in process mode a long wait leaves them in
  /// their longest naps, which would otherwise land in the next timed job).
  void time_references(Tracer* tr) {
    if (rank_ == 0) {
      for (int a = 0; a < kNumApps; ++a) {
        References scratch;
        Scope s(tr, driver_track_, kRefNames[static_cast<std::size_t>(a)], 0, -1);
        const std::int64_t t0 = now_ns();
        run_reference(static_cast<Prog>(a), in_, scratch);
        seq_samples_[static_cast<std::size_t>(a)].push_back(
            1e-6 * static_cast<double>(now_ns() - t0));
      }
    }
    if (process_mode()) rt_->run([](gbsp::Worker& w) { w.sync(); });
    out_.reset(in_);
    run_job(-1, nullptr, nullptr);
  }

  /// Replaces the Runtime (the old one is destroyed first: in process mode
  /// every rank must have left the old mesh before the next bootstraps).
  void make_runtime(bool collect_stats, Tracer* tr) {
    rt_.reset();
    gbsp::Config c = cfg_;
    c.collect_stats = collect_stats;
    if (process_mode()) c.shm_name += ".rt" + std::to_string(runtimes_);
    ++runtimes_;
    Scope s(tr, driver_track_, "runtime.ctor", 0, -1);
    const std::int64_t t0 = now_ns();
    rt_ = std::make_unique<gbsp::Runtime>(c);
    // The socket-family meshes bootstrap on the first run: an empty one
    // makes the span cover the whole start-up.
    rt_->run([](gbsp::Worker& w) { w.sync(); });
    ctor_ms_.push_back(1e-6 * static_cast<double>(now_ns() - t0));
  }

  /// Runs the timed window: jobs back to back until `seconds` have passed,
  /// each verified before the next starts. With a tracer, records spans and
  /// keeps each run's RunStats.
  Window run_window(double seconds, Tracer* tr) {
    Window w;
    TraceCtx ctx;
    ctx.tracer = tr;
    ctx.process_mode = process_mode();
    ctx.body_span.assign(static_cast<std::size_t>(p()), 0);
    const std::size_t fresh0 = rt_->slab_pool().fresh_allocations();
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    time_references(tr);
    std::int64_t last_refs = now_ns();
    for (int job = 0;; ++job) {
      w.jobs.emplace_back();
      JobRecord& rec = w.jobs.back();
      out_.reset(in_);
      Control mine{};
      try {
        mine.recoveries = run_job(job, &rec, tr != nullptr ? &ctx : nullptr);
      } catch (const std::exception& e) {
        // A run that threw may have left peers mid-exchange: count the job
        // as failed and end the window rather than run on a broken mesh.
        rec.failed = true;
        ++w.failed;
        w.first_error = e.what();
        break;
      }
      for (int i = 0; i < kNumProgs; ++i) {
        const CheckCount c =
            check_program(static_cast<Prog>(i), in_, refs_, out_);
        mine.mismatches[static_cast<std::size_t>(i)] = c.mismatches;
        mine.covered[static_cast<std::size_t>(i)] = c.covered;
      }
      const std::int64_t now = now_ns();
      mine.go_on = now < deadline ? 1 : 0;
      mine.refs_due = now - last_refs >= kRefEveryNs ? 1 : 0;
      const Control all = process_mode() ? combine(mine) : mine;
      const std::string why = job_failure(all);
      if (!why.empty()) {
        rec.failed = true;
        ++w.failed;
        if (w.first_error.empty()) w.first_error = "job " + std::to_string(job) + ": " + why;
      }
      if (all.go_on == 0) break;
      if (all.refs_due != 0) {
        time_references(tr);
        last_refs = now_ns();
      }
    }
    w.fresh_allocations = rt_->slab_pool().fresh_allocations() - fresh0;
    return w;
  }

  /// Runs the mix once. Returns RunStats::recoveries summed over the runs.
  std::uint64_t run_job(int job, JobRecord* rec, TraceCtx* ctx) {
    Tracer* tr = ctx != nullptr ? ctx->tracer : nullptr;
    Scope js(tr, driver_track_, "job", 0, job);
    std::uint64_t recoveries = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kNumProgs; ++i) {
      const auto prog = static_cast<Prog>(i);
      const auto fn = make_program(prog, in_, out_, ctx);
      Scope rs(tr, driver_track_, kRunNames[static_cast<std::size_t>(i)], js.id(), job);
      if (ctx != nullptr) {
        ctx->job = job;
        ctx->run_span = rs.id();
      }
      const std::int64_t a = now_ns();
      const gbsp::RunStats st = rt_->run(fn);
      const std::int64_t b = now_ns();
      recoveries += st.recoveries;
      if (rec != nullptr) {
        rec->run_ms[static_cast<std::size_t>(i)] = 1e-6 * static_cast<double>(b - a);
        rec->run_span[static_cast<std::size_t>(i)] = rs.id();
        if (tr != nullptr) rec->stats[static_cast<std::size_t>(i)] = summarize(st);
      }
    }
    if (rec != nullptr) rec->ms = 1e-6 * static_cast<double>(now_ns() - t0);
    return recoveries;
  }

  /// Empty when the combined counts verify every program.
  [[nodiscard]] std::string job_failure(const Control& c) const {
    if (c.recoveries != 0) return "the runtime recovered from a transport fault";
    for (int i = 0; i < kNumProgs; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const std::uint64_t want = expected_coverage(static_cast<Prog>(i), in_);
      if (c.mismatches[k] != 0 || c.covered[k] != want) {
        return std::string(kProgNames[k]) + ": " + std::to_string(c.mismatches[k]) +
               " mismatching entries, " + std::to_string(c.covered[k]) + " of " +
               std::to_string(want) + " written";
      }
    }
    return {};
  }

  /// Sums the ranks' check counts; everyone adopts rank 0's decisions.
  Control combine(const Control& mine) {
    Control all{};
    rt_->run([&](gbsp::Worker& w) {
      const std::vector<Control> each = gbsp::allgather(w, mine);
      for (const Control& c : each) {
        for (int i = 0; i < kNumProgs; ++i) {
          all.mismatches[static_cast<std::size_t>(i)] += c.mismatches[static_cast<std::size_t>(i)];
          all.covered[static_cast<std::size_t>(i)] += c.covered[static_cast<std::size_t>(i)];
        }
        all.recoveries += c.recoveries;
      }
      all.go_on = each[0].go_on;
      all.refs_due = each[0].refs_due;
    });
    return all;
  }

  Inputs& inputs() { return in_; }
  [[nodiscard]] const Inputs& inputs() const { return in_; }
  Outputs& outputs() { return out_; }
  References& refs() { return refs_; }
  /// Median sequential time of `app` over this process's samples.
  [[nodiscard]] double seq_ms(int app) const {
    return median(seq_samples_[static_cast<std::size_t>(app)]);
  }
  [[nodiscard]] const std::vector<double>& ctor_ms() const { return ctor_ms_; }
  void drop_runtime() { rt_.reset(); }

  static constexpr std::array<const char*, kNumProgs> kRunNames = {
      "ocean.run", "nbody.run", "mst.run",   "sp.run",    "msp.run",
      "matmul.run", "sort.run", "small.run", "large.run", "sync.run"};
  static constexpr std::array<const char*, kNumApps> kRefNames = {
      "ocean.seq", "nbody.seq", "mst.seq", "sp.seq",
      "msp.seq",   "matmul.seq", "sort.seq"};

 private:
  const Workload& wl_;
  std::uint64_t seed_;
  int rank_;
  gbsp::Config cfg_;
  std::unique_ptr<gbsp::Runtime> rt_;
  int runtimes_ = 0;
  int driver_track_;
  Inputs in_;
  References refs_;
  Outputs out_;
  std::array<std::vector<double>, kNumApps> seq_samples_;
  std::vector<double> ctor_ms_;
};

// ------------------------------------------------------------------ metrics

void end_to_end(const Window& w, const Bench& b, double setup_s,
                std::vector<Metric>& m, JsonObj& detail) {
  // In the order they ran; a failed job counts as infinitely slow (and
  // prints as null).
  std::vector<double> all_jobs;
  for (const JobRecord& j : w.jobs) {
    all_jobs.push_back(j.failed ? std::numeric_limits<double>::infinity() : j.ms);
  }
  const Tail t = block_tail(all_jobs);
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"job_p50_ms", median(w.ok_job_ms()), "ms"});
  m.push_back({"job_tail_ms", t.value, "ms"});
  detail.raw("job_ms", json_list(all_jobs));
  JsonObj run_lists;
  for (int i = 0; i < kNumProgs; ++i) {
    run_lists.raw(kProgNames[static_cast<std::size_t>(i)], json_list(w.run_ms(static_cast<Prog>(i))));
  }
  detail.raw("run_ms", run_lists.done());
  detail.num("job_tail_percentile", t.percentile)
      .num("job_tail_samples_beyond", static_cast<double>(t.beyond))
      .num("job_tail_blocks", static_cast<double>(kTailBlocks))
      .num("jobs", static_cast<double>(w.jobs.size()));

  double seq = 0.0, bsp = 0.0;
  JsonObj per_app;
  for (int a = 0; a < kNumApps; ++a) {
    const double run = median(w.run_ms(static_cast<Prog>(a)));
    const double s = b.seq_ms(a);
    seq += s;
    bsp += run;
    per_app.raw(kProgNames[static_cast<std::size_t>(a)],
                JsonObj().num("bsp_ms", run).num("seq_ms", s).num("speedup", s / run).done());
  }
  detail.raw("apps", per_app.done());
  m.push_back({"speedup", seq / bsp, "x"});
  for (Prog a : {kOcean, kNbody, kSp, kMsp, kMatmul, kMst, kSort}) {
    m.push_back({std::string(kProgNames[static_cast<std::size_t>(a)]) + "_ms",
                 median(w.run_ms(a)), "ms"});
  }

  const int p = b.p();
  auto rate = [&](Prog prog, double per_ms_scale) {
    std::vector<double> v;
    for (double ms : w.run_ms(prog)) v.push_back(per_ms_scale / ms);
    return median(v);
  };
  m.push_back({"small_msgs_per_s",
               rate(kSmall, 1e3 * static_cast<double>(micro_messages(kSmall, p))),
               "msgs/s"});
  m.push_back({"large_GBps",
               rate(kLarge, 1e-6 * static_cast<double>(micro_messages(kLarge, p) *
                                                       kLargeShape.bytes)),
               "GB/s"});
  m.push_back({"sync_us", 1e3 * median(w.run_ms(kSync)) / kSyncShape.supersteps, "us"});
}

/// Per-layer metrics of a traced window. In process mode the spans and
/// RunStats describe rank 0 only (the runtime gathers no other rank's
/// trace yet).
void per_layer(const Window& w, const Tracer& tr, int rank_tracks,
               const Bench& b, double untraced_p50_ms, std::vector<Metric>& m,
               JsonObj& detail) {
  // The rank tracks hold the microprograms' syncs and the SPMD bodies,
  // every rank this process holds.
  std::vector<double> sync_us;
  std::unordered_map<std::uint64_t, double> longest_body_us;  // by run span
  for (int t = 0; t < rank_tracks; ++t) {
    for (const Span& s : tr.track(t)) {
      const double us = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
      if (std::strcmp(s.name, "sync") == 0) {
        sync_us.push_back(us);
      } else {
        double& l = longest_body_us[s.parent];
        l = std::max(l, us);
      }
    }
  }
  m.push_back({"runtime.sync_p50_us", median(sync_us), "us"});
  m.push_back({"runtime.sync_tail_us", tail_of(sync_us).value, "us"});

  // Runtime::run wall minus the longest SPMD body it ran.
  std::vector<double> overhead_us;
  for (const JobRecord& j : w.jobs) {
    if (j.failed) continue;
    for (int i = 0; i < kNumProgs; ++i) {
      const auto k = static_cast<std::size_t>(i);
      overhead_us.push_back(1e3 * j.run_ms[k] - longest_body_us[j.run_span[k]]);
    }
  }
  m.push_back({"runtime.run_overhead_us", median(overhead_us), "us"});

  // Median over traced jobs of a function of one program's RunStats.
  auto over = [&](Prog prog, auto f) {
    std::vector<double> v;
    for (const JobRecord& j : w.jobs) {
      if (!j.failed) v.push_back(f(j.stats[static_cast<std::size_t>(prog)]));
    }
    return median(v);
  };

  // g and L of this run, from the microprograms: L is the one-packet
  // program's time per superstep; g is the 64 KiB all-to-all's time per
  // 16 B packet once L is taken off each superstep (bulk messages carry
  // most of the apps' H).
  const double L_us = over(kSync, [](const StatsSummary& s) {
    return 1e6 * s.wall_s / static_cast<double>(std::max<std::uint64_t>(1, s.S));
  });
  const double g_us = over(kLarge, [&](const StatsSummary& s) {
    const double h = static_cast<double>(std::max<std::uint64_t>(1, s.H));
    return std::max(0.0, (1e6 * s.wall_s - L_us * static_cast<double>(s.S)) / h);
  });
  m.push_back({"cost.g_us", g_us, "us"});
  m.push_back({"cost.L_us", L_us, "us"});
  const gbsp::MachineParams mp{g_us, L_us};

  JsonObj paper;
  for (int a = 0; a < kNumApps; ++a) {
    const auto prog = static_cast<Prog>(a);
    const std::string app = kProgNames[static_cast<std::size_t>(a)];
    m.push_back({"runtime.S." + app,
                 over(prog, [](const StatsSummary& s) { return static_cast<double>(s.S); }),
                 "supersteps"});
    m.push_back({"runtime.boundary_share." + app,
                 over(prog, [](const StatsSummary& s) { return 1.0 - s.W_s / s.wall_s; }),
                 "1"});
    m.push_back({"runtime.imbalance." + app, over(prog, [](const StatsSummary& s) {
                   const double total = s.total_work_s;
                   return total > 0.0 ? s.W_s * s.ranks / total
                                      : 1.0;
                 }),
                 "1"});
    m.push_back({"apps." + app + ".W_s", over(prog, [](const StatsSummary& s) { return s.W_s; }),
                 "s"});
    m.push_back({"apps." + app + ".H",
                 over(prog, [](const StatsSummary& s) { return static_cast<double>(s.H); }),
                 "packets"});
    m.push_back({"apps." + app + ".seq_ms", b.seq_ms(a), "ms"});
    m.push_back({"cost.pred_ratio." + app, over(prog, [&](const StatsSummary& s) {
                   return gbsp::predict_cost(s.W_s, s.H, s.S, mp).total_s() / s.wall_s;
                 }),
                 "1"});
    // The paper column: measured wall beside W + gH + LS, term by term.
    auto term = [&](auto f) {
      return 1e3 * over(prog, [&](const StatsSummary& s) {
               return f(gbsp::predict_cost(s.W_s, s.H, s.S, mp));
             });
    };
    paper.raw(app, JsonObj()
                       .num("wall_ms", 1e3 * over(prog, [](const StatsSummary& s) { return s.wall_s; }))
                       .num("W_ms", term([](const gbsp::CostBreakdown& c) { return c.work_s; }))
                       .num("gH_ms", term([](const gbsp::CostBreakdown& c) { return c.bandwidth_s; }))
                       .num("LS_ms", term([](const gbsp::CostBreakdown& c) { return c.latency_s; }))
                       .done());
  }
  detail.raw("paper_column", paper.done());

  m.push_back({"arena.fresh_allocations", static_cast<double>(w.fresh_allocations), "count"});
  m.push_back({"exchange.wire_bytes_per_payload_byte", over(kSmall, [](const StatsSummary& s) {
                 return static_cast<double>(s.wire_bytes) /
                        static_cast<double>(std::max<std::uint64_t>(1, s.bytes));
               }),
               "1"});
  m.push_back({"exchange.syscalls_per_superstep", over(kSync, [](const StatsSummary& s) {
                 return static_cast<double>(s.wire_syscalls) /
                        static_cast<double>(std::max<std::uint64_t>(1, s.S));
               }),
               "count"});
  // Zero-copy bytes are disjoint from wire_bytes (only their descriptors
  // ride the ring).
  m.push_back({"exchange.zc_share", over(kLarge, [](const StatsSummary& s) {
                 return static_cast<double>(s.wire_zc_bytes) /
                        static_cast<double>(
                            std::max<std::uint64_t>(1, s.wire_zc_bytes + s.wire_bytes));
               }),
               "1"});

  const double n = static_cast<double>(b.inputs().A.n());
  m.push_back({"kernels.dgemm_gflops",
               2.0 * n * n * n / (1e6 * b.seq_ms(kMatmul)), "GFLOP/s"});
  m.push_back({"launch.runtime_ctor_ms", median(b.ctor_ms()), "ms"});
  const double traced_p50 = median(w.ok_job_ms());
  m.push_back({"trace.job_p50_ms", traced_p50, "ms"});
  m.push_back({"trace.overhead_ms", traced_p50 - untraced_p50_ms, "ms"});
}

std::string metrics_json(const std::vector<Metric>& ms) {
  JsonObj o;
  for (const Metric& m : ms) {
    o.raw(m.name, JsonObj().num("value", m.value).str("unit", m.unit).done());
  }
  return o.done();
}

// ------------------------------------------------------------------- modes

int run_mode(const Args& args) {
  const std::int64_t entry_ns = now_ns();
  const Workload& wl = *args.workload;
  gbsp::Config cfg;
  cfg.delivery = wl.delivery;
  cfg.scheduling = gbsp::Scheduling::Parallel;
  int rank = 0;
  if (wl.process_mode) {
    if (!gbsp::configure_proc_from_env(cfg) || cfg.delivery != wl.delivery ||
        cfg.nprocs != kRanks) {
      throw std::runtime_error(std::string(wl.name) +
                       " runs one process per rank: launch it as\n"
                       "  bsp_launch -p 4 --transport shm --timeout <s> -- "
                       "perfbench --workload exchange_shm_p4 ...");
    }
    rank = cfg.shm_rank;
  } else {
    cfg.nprocs = kRanks;
  }
  ::mkdir(args.out.c_str(), 0755);  // run.py creates it; EEXIST is fine

  // Tracks: one per rank this process holds, then the driver's.
  std::vector<int> tids;
  std::vector<std::string> names;
  const int rank_tracks = wl.process_mode ? 1 : kRanks;
  for (int t = 0; t < rank_tracks; ++t) {
    const int r = wl.process_mode ? rank : t;
    tids.push_back(r);
    names.push_back("rank " + std::to_string(r));
  }
  tids.push_back(kRanks + rank);
  names.push_back(wl.process_mode ? "driver (rank " + std::to_string(rank) + ")" : "driver");
  Tracer tracer(tids, names);
  Tracer* tr = args.trace ? &tracer : nullptr;

  Bench b(wl, args.seed, rank, cfg, rank_tracks);
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(b.setup_once());
  const double launch_s =
      args.launch_t0_ns > 0 ? 1e-9 * static_cast<double>(entry_ns - args.launch_t0_ns) : 0.0;
  const double setup_s = launch_s + median(setups);
  b.compute_references();

  std::vector<Metric> metrics;
  JsonObj detail;
  Window main_window;
  std::size_t untraced_jobs = 0;  // trace mode: the untraced half's jobs
  if (!args.trace) {
    main_window = b.run_window(args.seconds, nullptr);
    end_to_end(main_window, b, setup_s, metrics, detail);
  } else {
    const Window untraced = b.run_window(0.5 * args.seconds, nullptr);
    b.make_runtime(true, tr);
    main_window = b.run_window(0.5 * args.seconds, tr);
    untraced_jobs = untraced.jobs.size();
    main_window.failed += untraced.failed;
    if (main_window.first_error.empty()) main_window.first_error = untraced.first_error;
    per_layer(main_window, tracer, rank_tracks, b, median(untraced.ok_job_ms()), metrics,
              detail);
    detail.num("untraced_jobs", static_cast<double>(untraced.jobs.size()))
        .num("untraced_job_p50_ms", median(untraced.ok_job_ms()));
    const std::string path = args.out + "/trace-rank" + std::to_string(rank) + ".json";
    tracer.write_chrome_json(path);
  }
  b.drop_runtime();
  if (rank != 0) return 0;

  const std::size_t attempted = main_window.jobs.size() + untraced_jobs;
  detail.str("workload", wl.name)
      .raw("seed", std::to_string(args.seed))
      .num("seconds", args.seconds)
      .num("trace", args.trace ? 1 : 0)
      .num("p", kRanks)
      .str("transport", gbsp::to_string(wl.delivery))
      .str("mode", wl.process_mode ? "one OS process per rank (rank 0 reports)" : "in-process")
      .num("launch_s", launch_s)
      .num("fail_ratio", static_cast<double>(main_window.failed) /
                             static_cast<double>(std::max<std::size_t>(1, attempted)))
      .str("first_error", main_window.first_error)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE);
  detail.raw("setup_reps_s", json_list(setups));

  const bool correct = main_window.failed == 0;
  const std::string line = JsonObj()
                               .raw("correct", correct ? "true" : "false")
                               .num("attempted", static_cast<double>(attempted))
                               .num("failed", static_cast<double>(main_window.failed))
                               .raw("metrics", metrics_json(metrics))
                               .raw("detail", detail.done())
                               .done();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

/// Feeds each checker one corrupted output: the clean job must pass and
/// every corrupted one must count as failed, through the same accounting
/// run_window uses for fail_ratio.
int self_test_mode() {
  gbsp::Config cfg;
  cfg.nprocs = kRanks;
  Bench b(kWorkloads[0], 1, 0, cfg, 0);
  b.setup_once();
  for (int a = 0; a < kNumApps; ++a) run_reference(static_cast<Prog>(a), b.inputs(), b.refs());
  Inputs& in = b.inputs();
  Outputs& out = b.outputs();

  auto corrupt = [&](Prog prog) {
    const int m = in.ocean.interior();
    switch (prog) {
      case kOcean: {
        double& x = out.psi[static_cast<std::size_t>(m / 2) * (m + 2) + m / 2];
        x = std::nextafter(x, 1e300);  // one ulp: the check is bit-exact
        break;
      }
      case kNbody: out.bodies[7].pos.x += 0.05; break;
      case kMst: out.mst.total_weight *= 1.0 + 1e-6; break;
      case kSp: out.sp[0][11] += 1e-6; break;
      case kMsp: out.msp[3][17] += 1e-6; break;
      case kMatmul: out.C.at(5, 9) += 1e-6; break;
      case kSort: std::swap(out.sorted[100], out.sorted[200]); break;
      default: out.micro[static_cast<std::size_t>(prog - kSmall)][2].checksum ^= 1; break;
    }
  };

  std::size_t attempted = 0, failed = 0;
  int wrong = 0;
  for (int c = -1; c < kNumProgs; ++c) {
    out.reset(in);
    Control ctl{};
    ctl.recoveries = b.run_job(0, nullptr, nullptr);
    if (c >= 0) corrupt(static_cast<Prog>(c));
    for (int i = 0; i < kNumProgs; ++i) {
      const CheckCount cc = check_program(static_cast<Prog>(i), in, b.refs(), out);
      ctl.mismatches[static_cast<std::size_t>(i)] = cc.mismatches;
      ctl.covered[static_cast<std::size_t>(i)] = cc.covered;
    }
    const std::string why = b.job_failure(ctl);
    ++attempted;
    if (!why.empty()) ++failed;
    const bool want_fail = c >= 0;
    const char* what = c < 0 ? "clean job" : kProgNames[static_cast<std::size_t>(c)];
    if (want_fail == why.empty()) {
      std::fprintf(stderr, "self-test: %s: expected %s, got %s\n", what,
                   want_fail ? "a failed check" : "a pass", why.empty() ? "a pass" : why.c_str());
      ++wrong;
    } else {
      std::printf("self-test: %-9s %s\n", what, why.empty() ? "passes" : why.c_str());
    }
  }
  const double fail_ratio = static_cast<double>(failed) / static_cast<double>(attempted);
  const double want_ratio = static_cast<double>(kNumProgs) / (kNumProgs + 1);
  std::printf("self-test: fail_ratio %zu/%zu = %.4f (want %.4f)\n", failed, attempted,
              fail_ratio, want_ratio);
  if (wrong != 0 || fail_ratio != want_ratio) {
    std::fprintf(stderr, "self-test: FAILED\n");
    return 1;
  }
  std::printf("self-test: ok\n");
  return 0;
}

/// A fixed CPU-bound loop timed on one thread and on nproc threads at once:
/// capacity = nproc * t1 / tN is how many cores the host actually provided
/// (nproc on an idle host, less when neighbours are busy).
int capacity_mode() {
  const int n = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  auto timed = [&](int threads) {
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      const std::int64_t t0 = now_ns();
      std::vector<std::thread> ts;
      for (int t = 0; t < threads; ++t) ts.emplace_back(spin);
      for (auto& t : ts) t.join();
      reps.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
    return median(reps);
  };
  // A vCPU that was idle runs markedly slower for a few hundred ms after it
  // wakes; spin every core for half a second first so the probe times the
  // host, not the wake-up.
  const std::int64_t warm_until = now_ns() + 500'000'000;
  while (now_ns() < warm_until) timed(n);
  const double t1 = timed(1);
  const double tn = timed(n);
  std::printf("%s\n", JsonObj()
                          .num("nproc", n)
                          .num("t1_ms", t1)
                          .num("tn_ms", tn)
                          .num("parallel_capacity", n * t1 / tn)
                          .num("sink", static_cast<double>(sink.load() & 1))
                          .done()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    switch (args.mode) {
      case Mode::Help: std::fputs(kUsage, stdout); return 0;
      case Mode::SelfTest: return self_test_mode();
      case Mode::Capacity: return capacity_mode();
      case Mode::Run: return run_mode(args);
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    const char* rank = std::getenv("GBSP_RANK");
    std::fprintf(stderr, "perfbench: rank %s: %s\n", rank != nullptr ? rank : "0", e.what());
    return 1;
  }
  return 1;
}
