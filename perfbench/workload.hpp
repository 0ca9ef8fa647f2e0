// The benchmark's job: the paper apps, sample sort and three exchange
// microprograms, their seeded inputs, sequential references and output
// checks. Every rank builds bit-identical inputs from the seed, so the same
// code serves in-process runs (one process holds every rank's output) and
// process mode (each process holds only its own rank's output regions).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "apps/matmul/matmul.hpp"
#include "apps/mst/mst.hpp"
#include "apps/nbody/body.hpp"
#include "apps/nbody/nbody.hpp"
#include "apps/ocean/ocean_bsp.hpp"
#include "core/runtime.hpp"
#include "graph/geometric.hpp"
#include "graph/kruskal.hpp"
#include "graph/partition.hpp"
#include "trace.hpp"

namespace perfbench {

/// The programs of one job, in run order. The first kNumApps have a
/// sequential reference and count towards the speed-up.
enum Prog : int {
  kOcean,
  kNbody,
  kMst,
  kSp,
  kMsp,
  kMatmul,
  kSort,
  kSmall,  ///< 16 B all-to-all bursts: per-message cost
  kLarge,  ///< 64 KiB all-to-all: bandwidth and zero-copy
  kSync,   ///< one 16 B packet per rank per superstep: pure L
  kNumProgs
};
inline constexpr int kNumApps = kSort + 1;
inline constexpr std::array<const char*, kNumProgs> kProgNames = {
    "ocean", "nbody", "mst", "sp", "msp", "matmul", "sort",
    "small", "large", "sync"};

/// Microprogram shapes. Messages per run are what the rates divide by.
/// Single supersteps of the 16 B burst are bimodal (a barrier wake-up is
/// fast or slow), so a run spans 40 of them to average that out.
struct MicroShape {
  int supersteps;
  int msgs_per_dest;  ///< per superstep, to every other rank (small/large)
  std::size_t bytes;  ///< payload bytes per message
};
inline constexpr MicroShape kSmallShape{40, 1000, 16};
inline constexpr MicroShape kLargeShape{8, 2, 64 * 1024};
inline constexpr MicroShape kSyncShape{300, 1, 16};

/// Messages delivered by one run of a microprogram on p ranks.
std::uint64_t micro_messages(Prog prog, int p);

/// Everything the programs read, generated from the seed.
struct Inputs {
  int p = 0;
  gbsp::OceanConfig ocean;
  std::vector<gbsp::Body> bodies;
  std::vector<int> body_assign;
  gbsp::NbodyConfig nbody;
  gbsp::GeometricGraph graph;
  gbsp::GraphPartition part;
  int sp_source = 0;
  std::vector<int> msp_sources;
  gbsp::Matrix A, B;
  std::vector<std::uint64_t> keys;
  /// large_payload[(src * p + dst) * msgs + k]: the 64 KiB messages.
  std::vector<std::vector<std::uint64_t>> large_payload;
};
Inputs make_inputs(std::uint64_t seed, int p);

/// Sequential reference outputs.
struct References {
  std::vector<double> psi, zeta;
  std::vector<gbsp::Body> bodies;
  gbsp::MstResult mst;
  std::vector<std::vector<double>> sp, msp;
  gbsp::Matrix C;
  std::vector<std::uint64_t> sorted;
};
/// Computes app `app`'s reference into `refs` on the calling thread.
void run_reference(Prog app, const Inputs& in, References& refs);

/// What a microprogram's receiver saw, per rank.
struct MicroResult {
  std::uint64_t delivered = ~std::uint64_t{0};  ///< sentinel: not run here
  std::uint64_t checksum = 0;
};

/// Program outputs. reset() fills every output with a sentinel, so a check
/// counts exactly the entries this process's ranks wrote.
struct Outputs {
  std::vector<double> psi, zeta;
  gbsp::OceanRunInfo ocean_info;
  std::vector<gbsp::Body> bodies;
  gbsp::MstParallelResult mst;
  std::vector<std::vector<double>> sp, msp;
  gbsp::Matrix C;
  std::vector<std::uint64_t> sorted;
  std::array<std::vector<MicroResult>, 3> micro;  ///< small, large, sync

  void reset(const Inputs& in);
};

/// Tracing context shared by the SPMD bodies of one run: track t = rank t
/// (in-process) or the process's own rank (process mode, track 0).
struct TraceCtx {
  Tracer* tracer = nullptr;
  int job = -1;
  std::uint64_t run_span = 0;
  bool process_mode = false;
  /// SPMD-body span per rank, read by traced syncs as their parent.
  std::vector<std::uint64_t> body_span;

  [[nodiscard]] int track(int pid) const { return process_mode ? 0 : pid; }
};

/// Builds program `prog` through the app's public factory. With a tracer in
/// `ctx`, the returned body records a span per rank and per microprogram
/// sync.
std::function<void(gbsp::Worker&)> make_program(Prog prog, const Inputs& in,
                                                 Outputs& out, TraceCtx* ctx);

/// Outcome of checking one program's outputs held by this process.
struct CheckCount {
  std::uint64_t mismatches = 0;
  std::uint64_t covered = 0;  ///< output entries this process holds
};
CheckCount check_program(Prog prog, const Inputs& in, const References& refs,
                         const Outputs& out);
/// Entries the ranks of the whole run must cover between them.
std::uint64_t expected_coverage(Prog prog, const Inputs& in);

}  // namespace perfbench
