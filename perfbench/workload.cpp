#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "apps/nbody/orb.hpp"
#include "apps/nbody/plummer.hpp"
#include "apps/ocean/ocean_seq.hpp"
#include "apps/sort/sample_sort.hpp"
#include "apps/sp/shortest_paths.hpp"
#include "graph/dijkstra.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// Input sizes. Each rank's share of every input stays within its core's
// 2 MiB L2: on a shared 4-vCPU VM, runs whose working set spilled to the
// shared L3 and DRAM swung by about 20% with the neighbours' memory
// traffic. The shorter apps run long enough (8192 bodies, 12000 graph
// nodes) that a slow boundary, which can add a millisecond or two on shm,
// moves their run time by a few percent rather than flipping its median.
// One n-body step: over several, the fixed initial ORB split drifts out of
// balance by an amount that depends on the seed. At 8000 graph nodes the
// components left after MST's first Boruvka round sit at its endgame
// threshold (MstConfig's default 64), so the seed chose between one round
// and two (S 20 or 35) and moved mst_ms by a fifth; at 12000 every seed
// tried takes two. A job (the whole mix) takes about 100 ms at p = 4.
constexpr int kOceanN = 130;    // interior 128
constexpr int kOceanSteps = 2;  // ~500 supersteps per run
constexpr int kBodies = 8192;
constexpr int kGraphNodes = 12000;
constexpr int kMspGrid = 5;  // 25 MSP sources: the paper's Section 3.5 count
constexpr int kMspSources = kMspGrid * kMspGrid;
constexpr int kMatrixN = 256;
constexpr std::size_t kSortKeys = std::size_t{1} << 18;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kUnwritten = -1.0;  // distances and masses are never negative

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The 16 B message a small/sync microprogram sends: {tag, mix64(tag)}; the
// tag encodes (src, dst, superstep, index) so misrouted or replayed
// messages change the receiver's checksum.
struct Packet {
  std::uint64_t tag;
  std::uint64_t check;
};
std::uint64_t packet_tag(int src, int dst, int step, int i) {
  return (static_cast<std::uint64_t>(src) << 52) |
         (static_cast<std::uint64_t>(dst) << 40) |
         (static_cast<std::uint64_t>(step) << 24) |
         static_cast<std::uint64_t>(i);
}
std::uint64_t packet_sum(const Packet& pk) {
  return pk.tag * 0x9e3779b97f4a7c15ULL + pk.check;
}

const MicroShape& shape_of(Prog prog) {
  switch (prog) {
    case kSmall: return kSmallShape;
    case kLarge: return kLargeShape;
    default: return kSyncShape;
  }
}

std::uint64_t words_sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (std::uint64_t x : v) s += x;
  return s;
}

// Receiver-side totals rank `me` must see from one microprogram run.
MicroResult expected_micro(Prog prog, const Inputs& in, int me) {
  const MicroShape& sh = shape_of(prog);
  const int p = in.p;
  MicroResult r{0, 0};
  for (int s = 0; s < sh.supersteps; ++s) {
    if (prog == kSync) {
      const int src = (me - 1 + p) % p;
      const std::uint64_t tag = packet_tag(src, me, s, 0);
      r.delivered += 1;
      r.checksum += packet_sum({tag, mix64(tag)});
      continue;
    }
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      for (int i = 0; i < sh.msgs_per_dest; ++i) {
        r.delivered += 1;
        if (prog == kSmall) {
          const std::uint64_t tag = packet_tag(src, me, s, i);
          r.checksum += packet_sum({tag, mix64(tag)});
        } else {
          r.checksum += words_sum(
              in.large_payload[static_cast<std::size_t>(
                  (src * p + me) * sh.msgs_per_dest + i)]);
        }
      }
    }
  }
  return r;
}

void traced_sync(gbsp::Worker& w, TraceCtx* ctx) {
  if (ctx == nullptr || ctx->tracer == nullptr) {
    w.sync();
    return;
  }
  Scope s(ctx->tracer, ctx->track(w.pid()), "sync",
          ctx->body_span[static_cast<std::size_t>(w.pid())], ctx->job);
  w.sync();
}

std::function<void(gbsp::Worker&)> make_micro(Prog prog, const Inputs& in,
                                              Outputs& out, TraceCtx* ctx) {
  std::vector<MicroResult>* res = &out.micro[static_cast<std::size_t>(prog - kSmall)];
  const Inputs* inp = &in;
  return [prog, inp, res, ctx](gbsp::Worker& w) {
    const MicroShape& sh = shape_of(prog);
    const int p = w.nprocs();
    const int me = w.pid();
    MicroResult got{0, 0};
    auto drain = [&] {
      while (const gbsp::Message* m = w.get_message()) {
        got.delivered += 1;
        if (prog == kLarge) {
          std::uint64_t s = 0;
          const std::size_t words = m->size() / sizeof(std::uint64_t);
          for (std::size_t j = 0; j < words; ++j) {
            std::uint64_t x;
            std::memcpy(&x, m->payload.data() + j * sizeof x, sizeof x);
            s += x;
          }
          got.checksum += m->size() == sh.bytes ? s : 1;
        } else {
          got.checksum += m->holds<Packet>() ? packet_sum(m->as<Packet>()) : 1;
        }
      }
    };
    for (int s = 0; s < sh.supersteps; ++s) {
      if (prog == kSync) {
        const int dst = (me + 1) % p;
        const std::uint64_t tag = packet_tag(me, dst, s, 0);
        w.send(dst, Packet{tag, mix64(tag)});
      } else {
        for (int d = 1; d < p; ++d) {
          const int dst = (me + d) % p;
          for (int i = 0; i < sh.msgs_per_dest; ++i) {
            if (prog == kSmall) {
              const std::uint64_t tag = packet_tag(me, dst, s, i);
              w.send(dst, Packet{tag, mix64(tag)});
            } else {
              const auto& v = inp->large_payload[static_cast<std::size_t>(
                  (me * p + dst) * sh.msgs_per_dest + i)];
              w.send_array(dst, v);
            }
          }
        }
      }
      traced_sync(w, ctx);
      drain();
    }
    (*res)[static_cast<std::size_t>(me)] = got;
  };
}

}  // namespace

std::uint64_t micro_messages(Prog prog, int p) {
  const MicroShape& sh = shape_of(prog);
  const std::uint64_t per_step =
      prog == kSync ? static_cast<std::uint64_t>(p)
                    : static_cast<std::uint64_t>(p) * (p - 1) *
                          static_cast<std::uint64_t>(sh.msgs_per_dest);
  return per_step * static_cast<std::uint64_t>(sh.supersteps);
}

Inputs make_inputs(std::uint64_t seed, int p) {
  Inputs in;
  in.p = p;
  // Sub-seeds per app, so each input depends on the seed alone.
  auto sub = [seed](std::uint64_t k) { return mix64(seed * 0x100 + k); };

  in.ocean.n = kOceanN;
  in.ocean.timesteps = kOceanSteps;
  // The ocean's input is its forcing: the seed perturbs the wind-stress
  // amplitude by up to 2%.
  gbsp::Xoshiro256 orng(sub(1));
  in.ocean.wind = orng.uniform(0.98, 1.02);
  in.ocean.validate();

  in.bodies = gbsp::plummer_model(kBodies, sub(2));
  in.body_assign = gbsp::orb_assign(in.bodies, p);
  in.nbody.iterations = 1;

  // The paper's G(delta) sits at the connectivity threshold, where the
  // edge count and the graph apps' work swing with the seed; a radius 1.7x
  // the expected threshold sqrt(ln n / (pi n)) keeps them steady (the
  // seed's own delta is the floor, so the graph is always connected).
  const double n_nodes = kGraphNodes;
  const double radius = 1.7 * std::sqrt(std::log(n_nodes) / (std::acos(-1.0) * n_nodes));
  in.graph.points = gbsp::random_points(kGraphNodes, sub(3));
  in.graph.delta =
      std::max(radius, gbsp::minimal_connecting_radius(in.graph.points));
  in.graph.graph = gbsp::Graph(
      kGraphNodes, gbsp::edges_within_radius(in.graph.points, in.graph.delta));
  in.part = gbsp::partition_by_stripes(in.graph.graph, in.graph.points, p);
  // Sources are the nodes nearest fixed points of the unit square: SP's
  // from a corner, MSP's from a 5 x 5 grid. The superstep counts (about the
  // distance to the farthest stripe) then hardly change with the seed,
  // which changes the graph.
  auto nearest = [&](double x, double y) {
    const auto& pts = in.graph.points;
    std::size_t best = 0;
    double best_d = 1e300;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double d = (pts[i].x - x) * (pts[i].x - x) + (pts[i].y - y) * (pts[i].y - y);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return static_cast<int>(best);
  };
  in.sp_source = nearest(0.0, 0.0);
  for (int gx = 0; gx < kMspGrid; ++gx) {
    for (int gy = 0; gy < kMspGrid; ++gy) {
      in.msp_sources.push_back(
          nearest((gx + 0.5) / kMspGrid, (gy + 0.5) / kMspGrid));
    }
  }

  in.A = gbsp::random_matrix(kMatrixN, sub(5));
  in.B = gbsp::random_matrix(kMatrixN, sub(6));
  const int q = gbsp::cannon_active_grid_dim(p, kMatrixN);
  if (kMatrixN % q != 0) throw std::logic_error("matmul: n not divisible by grid");

  in.keys.resize(kSortKeys);
  gbsp::Xoshiro256 krng(sub(7));
  // Odd keys are nonzero, so 0 marks an output slot no rank wrote.
  for (auto& k : in.keys) k = krng.next() | 1;

  const int m = kLargeShape.msgs_per_dest;
  const std::size_t words = kLargeShape.bytes / sizeof(std::uint64_t);
  in.large_payload.resize(static_cast<std::size_t>(p * p * m));
  gbsp::Xoshiro256 lrng(sub(8));
  for (auto& v : in.large_payload) {
    v.resize(words);
    for (auto& x : v) x = lrng.next();
  }
  return in;
}

void run_reference(Prog app, const Inputs& in, References& refs) {
  switch (app) {
    case kOcean: {
      gbsp::OceanSequential seq(in.ocean);
      seq.run();
      refs.psi = seq.psi();
      refs.zeta = seq.zeta();
      break;
    }
    case kNbody:
      refs.bodies = in.bodies;
      gbsp::sequential_nbody_steps(refs.bodies, in.nbody);
      break;
    case kMst: refs.mst = gbsp::kruskal_mst(in.graph.graph); break;
    case kSp:
      refs.sp = {gbsp::dijkstra(in.graph.graph, in.sp_source)};
      break;
    case kMsp:
      refs.msp.clear();
      for (int s : in.msp_sources) refs.msp.push_back(gbsp::dijkstra(in.graph.graph, s));
      break;
    case kMatmul: refs.C = gbsp::matmul_blocked(in.A, in.B); break;
    case kSort:
      refs.sorted = in.keys;
      std::sort(refs.sorted.begin(), refs.sorted.end());
      break;
    default: throw std::logic_error("run_reference: not an app");
  }
}

void Outputs::reset(const Inputs& in) {
  const std::size_t cells = static_cast<std::size_t>(in.ocean.n) * in.ocean.n;
  psi.assign(cells, kNan);
  zeta.assign(cells, kNan);
  ocean_info = {};
  bodies.assign(in.bodies.size(), gbsp::Body{{}, {}, kUnwritten});
  mst = {};
  mst.edge_count = -1;
  const std::size_t n = static_cast<std::size_t>(in.graph.graph.num_nodes());
  sp.assign(1, std::vector<double>(n, kUnwritten));
  msp.assign(kMspSources, std::vector<double>(n, kUnwritten));
  if (C.n() != in.A.n()) C = gbsp::Matrix(in.A.n());
  std::fill(C.data(), C.data() + static_cast<std::size_t>(C.n()) * C.n(), kNan);
  sorted.assign(in.keys.size(), 0);
  for (auto& v : micro) v.assign(static_cast<std::size_t>(in.p), MicroResult{});
}

std::function<void(gbsp::Worker&)> make_program(Prog prog, const Inputs& in,
                                                 Outputs& out, TraceCtx* ctx) {
  std::function<void(gbsp::Worker&)> body;
  switch (prog) {
    case kOcean:
      body = gbsp::make_ocean_program(in.ocean, &out.psi, &out.zeta,
                                      &out.ocean_info);
      break;
    case kNbody:
      body = gbsp::make_nbody_program(in.bodies, in.body_assign, in.nbody,
                                      &out.bodies);
      break;
    case kMst:
      body = gbsp::make_mst_program(in.part, gbsp::MstConfig{}, &out.mst);
      break;
    case kSp:
      body = gbsp::make_sp_program(in.part, {in.sp_source},
                                   gbsp::SpConfig{}, &out.sp);
      break;
    case kMsp:
      body = gbsp::make_sp_program(in.part, in.msp_sources, gbsp::SpConfig{},
                                   &out.msp);
      break;
    case kMatmul:
      body = gbsp::make_cannon_broadcast_program(in.A, in.B, &out.C);
      break;
    case kSort: body = gbsp::make_sample_sort_program(in.keys, &out.sorted); break;
    default: body = make_micro(prog, in, out, ctx); break;
  }
  if (ctx == nullptr || ctx->tracer == nullptr) return body;
  static constexpr std::array<const char*, kNumProgs> kBodyNames = {
      "ocean.spmd", "nbody.spmd", "mst.spmd",   "sp.spmd",    "msp.spmd",
      "matmul.spmd", "sort.spmd", "small.spmd", "large.spmd", "sync.spmd"};
  const char* name = kBodyNames[static_cast<std::size_t>(prog)];
  return [body = std::move(body), ctx, name](gbsp::Worker& w) {
    Scope s(ctx->tracer, ctx->track(w.pid()), name, ctx->run_span, ctx->job);
    ctx->body_span[static_cast<std::size_t>(w.pid())] = s.id();
    body(w);
  };
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool unwritten_nan(double x) { return same_bits(x, kNan); }

// Distances: every entry a rank wrote must be within 1e-9 of Dijkstra.
void check_rows(const std::vector<std::vector<double>>& got,
                const std::vector<std::vector<double>>& ref, CheckCount& c) {
  for (std::size_t k = 0; k < ref.size(); ++k) {
    for (std::size_t i = 0; i < ref[k].size(); ++i) {
      const double x = got[k][i];
      if (x == kUnwritten) continue;
      c.covered += 1;
      if (!(std::abs(x - ref[k][i]) <= 1e-9)) c.mismatches += 1;
    }
  }
}

}  // namespace

CheckCount check_program(Prog prog, const Inputs& in, const References& refs,
                         const Outputs& out) {
  CheckCount c;
  switch (prog) {
    case kOcean: {
      // Same kernels and sweep order: the interior must match bit for bit
      // (the ghost ring is scratch and not part of the result).
      const int m = in.ocean.interior();
      const std::size_t w = static_cast<std::size_t>(m) + 2;
      for (int i = 1; i <= m; ++i) {
        for (int j = 1; j <= m; ++j) {
          const std::size_t k = static_cast<std::size_t>(i) * w + j;
          for (const auto* f : {&out.psi, &out.zeta}) {
            const double x = (*f)[k];
            if (unwritten_nan(x)) continue;
            c.covered += 1;
            const double r = (f == &out.psi ? refs.psi : refs.zeta)[k];
            if (!same_bits(x, r)) c.mismatches += 1;
          }
        }
      }
      break;
    }
    case kNbody: {
      // Both are theta-approximations with different tree shapes; positions
      // agree within the BH error times dt^2 per step (the bound
      // TracksSequentialBarnesHut uses).
      const double tol = 5e-3 * in.nbody.iterations;
      for (std::size_t i = 0; i < out.bodies.size(); ++i) {
        const gbsp::Body& b = out.bodies[i];
        if (b.mass == kUnwritten) continue;
        c.covered += 1;
        if (b.mass != in.bodies[i].mass ||
            !((b.pos - refs.bodies[i].pos).norm() < tol)) {
          c.mismatches += 1;
        }
      }
      break;
    }
    case kMst: {
      if (out.mst.edge_count == -1) break;  // only rank 0 holds the result
      c.covered = 1;
      const double ref_w = refs.mst.total_weight;
      if (out.mst.edge_count != static_cast<std::int64_t>(refs.mst.edges.size()) ||
          !(std::abs(out.mst.total_weight - ref_w) < 1e-9 * std::max(1.0, ref_w))) {
        c.mismatches = 1;
      }
      break;
    }
    case kSp: check_rows(out.sp, refs.sp, c); break;
    case kMsp: check_rows(out.msp, refs.msp, c); break;
    case kMatmul: {
      const int n = in.A.n();
      const std::size_t cells = static_cast<std::size_t>(n) * n;
      for (std::size_t i = 0; i < cells; ++i) {
        const double x = out.C.data()[i];
        if (unwritten_nan(x)) continue;
        c.covered += 1;
        if (!(std::abs(x - refs.C.data()[i]) < 1e-10 * n)) c.mismatches += 1;
      }
      break;
    }
    case kSort:
      for (std::size_t i = 0; i < out.sorted.size(); ++i) {
        if (out.sorted[i] == 0) continue;
        c.covered += 1;
        if (out.sorted[i] != refs.sorted[i]) c.mismatches += 1;
      }
      break;
    default: {
      const auto& res = out.micro[static_cast<std::size_t>(prog - kSmall)];
      for (int r = 0; r < in.p; ++r) {
        const MicroResult& got = res[static_cast<std::size_t>(r)];
        if (got.delivered == MicroResult{}.delivered) continue;
        c.covered += 1;
        const MicroResult want = expected_micro(prog, in, r);
        if (got.delivered != want.delivered || got.checksum != want.checksum) {
          c.mismatches += 1;
        }
      }
      break;
    }
  }
  return c;
}

std::uint64_t expected_coverage(Prog prog, const Inputs& in) {
  const std::uint64_t n = static_cast<std::uint64_t>(in.graph.graph.num_nodes());
  switch (prog) {
    case kOcean: {
      const std::uint64_t m = static_cast<std::uint64_t>(in.ocean.interior());
      return 2 * m * m;
    }
    case kNbody: return in.bodies.size();
    case kMst: return 1;
    case kSp: return n;
    case kMsp: return n * kMspSources;
    case kMatmul:
      return static_cast<std::uint64_t>(in.A.n()) * static_cast<std::uint64_t>(in.A.n());
    case kSort: return in.keys.size();
    default: return static_cast<std::uint64_t>(in.p);
  }
}

}  // namespace perfbench
