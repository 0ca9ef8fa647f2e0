// Mesh transport: the paper's Appendix B.3 staged total exchange over any of
// the three endpoint meshes — the one composition of the two socket-family
// layers:
//
//   * a Mesh (core/mesh.hpp), picked by make_transport from Config::delivery:
//       - Socket: SocketpairMesh, one AF_UNIX SOCK_STREAM socketpair per
//         worker pair, all p ranks in this process as threads;
//       - Tcp: TcpMesh, this process is exactly one rank (Config::tcp_rank)
//         of an nprocs-process run, one AF_INET/TCP stream per peer,
//         bootstrapped by a connect/accept sweep with a versioned RankHello;
//       - Shm: ShmMesh, one rank (Config::shm_rank) per process on ONE host,
//         each rank pair sharing an mmap'd memfd segment of SPSC rings and a
//         zero-copy slab (core/shm_ring.hpp); steady state makes zero
//         data-path syscalls.
//   * ExchangeEngine (core/exchange_engine.hpp), one per local rank — p in
//     thread mode, 1 in process mode: the v2 sectioned wire format, the
//     rigid (p-1)-stage schedule, the wait policy, split-phase windows and
//     the fault-injection sites. Nothing above the endpoints changes between
//     loopback socketpairs, a real LAN and shared memory.
//
// This class is the Transport seam glue: it routes sends and boundaries to
// the right worker's engine, publishes inbox views after each boundary
// (re-pointing zero-copy frames at the shared mapping on shm), marks the
// mesh dirty when a worker unwinds mid-stage, and — when it holds all p
// engines — drives the Serialized-mode round-robin exchange over every
// engine at once. The wire behaviour is documented with the layer that owns
// it.
//
// Lifecycle: the mesh is built on the first reset_run() and *reused across
// Runtime::run() calls* while every exchange completes cleanly (a drained
// stream has nothing to leak into the next run). Any worker that unwinds
// mid-stage — peer death, timeout, abort — marks the wire dirty, and the
// next reset_run() rebuilds the mesh from scratch. For the process meshes a
// rebuild re-enters the full bootstrap, which completes only when every peer
// rank does the same: a coordinated retry (Config::max_run_retries)
// reconnects, a dead peer makes the bootstrap time out with a descriptive
// BspTransportError.
//
// Process mode (tcp, shm): the Runtime runs one WorkerState whose pid is the
// global rank, superstep barriers have size 1, and the exchange itself is
// the cross-rank synchronisation, as on the paper's PC-LAN. Checkpoint
// resume degrades to whole-run replay there (RecoveryLog::latest_complete()
// spans all nprocs ranks, of which only the local one checkpoints), and
// Serialized scheduling is rejected by validate_config.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/mesh.hpp"
#include "core/transport.hpp"

namespace gbsp {

class MeshTransport final : public detail::TransportBase {
 public:
  MeshTransport(const Config& cfg, SlabPool& pool,
                const std::atomic<bool>* abort_flag,
                std::unique_ptr<detail::Mesh> mesh)
      : TransportBase(cfg, pool, abort_flag), mesh_(std::move(mesh)) {}

  [[nodiscard]] const char* name() const override {
    return to_string(cfg_.delivery);
  }
  [[nodiscard]] bool needs_boundary_barriers() const override { return false; }
  [[nodiscard]] bool steady_state_zero_alloc() const override { return false; }

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override {
    return engine_of(st.pid).reserve(st, dest, n);
  }
  void flush(detail::WorkerState& st) override {
    // Sends stage straight into per-destination arenas; only the fault
    // harness hooks the boundary here.
    inject_boundary_fault(FaultSite::Flush, st);
  }
  void deliver_to(detail::WorkerState& dst) override;
  // Split-phase overlap: begin_exchange opens the boundary and starts
  // streaming stage 1 out of the staging arenas; progress() pumps both
  // directions non-blocking, advancing through the (p-1)-stage schedule as
  // each stage drains; finish_exchange resumes the in-flight stage with the
  // blocking spin-then-poll driver, runs the remaining stages, and publishes
  // the inbox views. The window's wall-clock counts against
  // Config::socket_stage_timeout_ms exactly like slow peer compute in a
  // rigid boundary — the timeout must exceed the longest overlap window.
  void begin_exchange(detail::WorkerState& st) override;
  bool progress(detail::WorkerState& st) override;
  void finish_exchange(detail::WorkerState& st) override;
  void exchange(const std::vector<std::unique_ptr<detail::WorkerState>>&
                    states) override;
  [[nodiscard]] bool has_unflushed(
      const detail::WorkerState& st) const override;

  /// Fault-injection hook (tests/ops): hard-closes every endpoint worker
  /// `pid` owns, as if its process died mid-superstep. Peers observe EOF on
  /// their next read of the shared stream and abort with BspTransportError.
  void debug_kill_endpoints(int pid) { mesh_->kill_endpoints(pid); }

  /// Raw endpoint fd (tests): `pid`'s end of the stream with `peer`, -1 for
  /// self. Used by the corruption tests to inject garbled bytes into a live
  /// stream.
  [[nodiscard]] int debug_raw_fd(int pid, int peer) const {
    return mesh_->fd(pid, peer);
  }

  /// How many times the mesh has been built. Consecutive clean runs reuse
  /// the mesh (count stays flat); a run that unwound mid-stage forces a
  /// rebuild on the next reset_run().
  [[nodiscard]] std::uint64_t debug_mesh_builds() const {
    return mesh_->builds();
  }

 private:
  /// The engine serving `pid`: indexed by pid in thread mode, the single
  /// engine of the local rank in process mode.
  [[nodiscard]] detail::ExchangeEngine& engine_of(int pid) const {
    return *eng_[eng_.size() == 1 ? 0 : static_cast<std::size_t>(pid)];
  }
  /// Builds dst.inbox views from the filled inbox arena.
  void publish(detail::WorkerState& dst);

  std::unique_ptr<detail::Mesh> mesh_;
  // One engine per local rank (unique_ptr: an engine holds arenas and iovec
  // scratch whose addresses its own StageState may point at — it must never
  // relocate).
  std::vector<std::unique_ptr<detail::ExchangeEngine>> eng_;
};

}  // namespace gbsp
