// The workload-frontend socket shim: a blocking POSIX-style socket API over
// the simulated stack, so small real programs — an echo server, an HTTP/1.0
// fetcher, an RPC fan-out client — run over the CAB datapath unmodified.
//
// This is the liblevelip idiom adapted to a simulator: where level-ip
// LD_PRELOADs socket()/connect()/read() onto its userspace stack, here the
// "syscalls" are coroutines (blocking = co_await) over socket::Socket and
// socket::Listener, and a Shim instance plays the role of one process's
// kernel socket table. Calls return 0/length on success and a negative
// POSIX-style error (W_EADDRNOTAVAIL, W_EBADF, ...) on failure — never an
// exception — so shim programs read like the C programs they stand in for.
//
// Scope: TCP streams only (the workloads this frontend exists for are
// request/response and bulk flows). wpoll is level-triggered. A blocked
// wpoll, and wclose's linger, observe readiness on a grid of
// kShimPollQuantum steps starting at the call time (for wclose, when the
// linger starts) plus the deadline, as a loop of kShimPollQuantum sleeps
// would, which keeps multi-fd waiting deterministic. Between readiness
// changes they sleep: a change reported by the socket layer wakes the
// waiter on the first grid tick that would have seen it, and the ticks in
// between are never run.
#pragma once

#include <memory>
#include <vector>

#include "core/host.h"
#include "socket/listener.h"

namespace nectar::wload {

// Negative POSIX-style return values (the subset shim programs can see).
inline constexpr int W_EBADF = -9;          // not an open fd
inline constexpr int W_EINVAL = -22;        // call not valid for this fd state
inline constexpr int W_EMFILE = -24;        // fd table full
inline constexpr int W_EADDRNOTAVAIL = -99; // ephemeral ports exhausted
inline constexpr int W_ECONNABORTED = -103; // embryonic connection gave up
inline constexpr int W_ENOTCONN = -107;     // stream call on unconnected fd
inline constexpr int W_ECONNREFUSED = -111; // connect failed (RST/timeout/no route)

[[nodiscard]] const char* werr_name(int e) noexcept;

// wpoll event bits (names and semantics follow poll(2); values are our own).
inline constexpr short WPOLLIN = 0x01;
inline constexpr short WPOLLOUT = 0x04;
inline constexpr short WPOLLHUP = 0x10;   // reported regardless of events
inline constexpr short WPOLLNVAL = 0x20;  // reported regardless of events

struct WPollFd {
  int fd = -1;        // negative = ignore this slot (poll(2) semantics)
  short events = 0;   // requested: WPOLLIN | WPOLLOUT
  short revents = 0;  // returned
};

// The fd table's size: wsocket returns W_EMFILE once every slot is open.
inline constexpr std::size_t kShimMaxFds = 512;
// The grid a blocked wpoll or wclose observes readiness on: call time +
// k * kShimPollQuantum.
inline constexpr sim::Duration kShimPollQuantum = sim::usec(20);
// wclose lingers up to this long for the peer to ACK everything wsend
// accepted (releasing the Socket earlier would discard the un-ACKed tail of
// its send buffer).
inline constexpr sim::Duration kShimCloseLinger = 30 * sim::kSecond;

struct ShimOptions {
  socket::SocketOptions socket;  // options for every socket the shim opens
  std::string process_name = "wload";
};

class Shim {
 public:
  using Options = ShimOptions;

  explicit Shim(core::Host& host, Options opts = {});
  Shim(const Shim&) = delete;
  Shim& operator=(const Shim&) = delete;

  // ------------------------------------------------------------ "syscalls"
  // Allocate a stream socket fd (>= 0), or W_EMFILE.
  int wsocket();
  // Remember a local port for the fd: the listen port for wlisten, or a
  // fixed source port for wconnect (0 = ephemeral).
  int wbind(int fd, std::uint16_t port);
  // Put the fd into listening state with `backlog` embryonic sockets armed.
  int wlisten(int fd, int backlog);
  // Block until the next connection establishes; returns its new fd.
  sim::Task<int> waccept(int fd);
  // Active open. Distinguishes local port exhaustion (W_EADDRNOTAVAIL,
  // counted in the stack's Netstat) from a peer that never answered or
  // refused (W_ECONNREFUSED).
  sim::Task<int> wconnect(int fd, net::IpAddr addr, std::uint16_t port);
  // Blocking stream write of the whole uio; returns bytes written (short
  // only if the connection died mid-write).
  sim::Task<long> wsend(int fd, mem::Uio data);
  // Blocking stream read; returns bytes read, 0 at EOF.
  sim::Task<long> wrecv(int fd, mem::Uio dst);
  // Close and release the fd. Streams get an orderly FIN handshake start,
  // then linger (up to kShimCloseLinger) until the peer has ACKed every
  // byte wsend accepted; protocol stragglers are the stack's zombie
  // machinery's problem, as for any socket teardown.
  sim::Task<int> wclose(int fd);
  // Level-triggered readiness over up to `nfds` descriptors. Returns the
  // number of fds with nonzero revents, 0 on timeout (timeout < 0 = wait
  // forever, 0 = nonblocking probe). At most one wpoll may wait on an fd.
  sim::Task<int> wpoll(WPollFd* fds, std::size_t nfds, sim::Duration timeout);

  // ------------------------------------------------------------- utilities
  // A data buffer in the shim process's address space (the "malloc" of shim
  // programs).
  [[nodiscard]] mem::UserBuffer walloc(std::size_t size, std::size_t misalign = 0) {
    return mem::UserBuffer(proc_->as, size, misalign);
  }
  [[nodiscard]] core::Host& host() noexcept { return host_; }
  [[nodiscard]] sim::Simulator& sim() noexcept { return host_.sim(); }
  [[nodiscard]] core::Host::Process& process() noexcept { return *proc_; }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  // Live open fds (debug / leak checks in tests).
  [[nodiscard]] std::size_t open_fds() const noexcept { return open_; }

  struct Stats {
    std::uint64_t sockets = 0;
    std::uint64_t accepts = 0;
    std::uint64_t connects = 0;
    std::uint64_t connect_refused = 0;
    std::uint64_t connect_eaddrnotavail = 0;
    std::uint64_t polls = 0;
    std::uint64_t poll_timeouts = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  class Waiter;

  // One fd table slot. Exactly one of {sock, lst} is set once the fd has
  // been connected/listened; both empty = fresh socket (bind-able). The
  // slot is the ready hook of its socket or listener and passes every
  // change on to the wpoll and the wclose blocked on this fd number.
  struct Fd final : socket::ReadyHook {
    // Declared before sock and lst: destroying those calls ready_changed().
    Waiter* poller = nullptr;
    Waiter* closer = nullptr;
    bool used = false;
    std::uint16_t bound_port = 0;
    std::unique_ptr<socket::Socket> sock;
    std::unique_ptr<socket::Listener> lst;
    void ready_changed() override;
  };

  // The slot of fd number `fd`, open or not (nullptr out of range).
  [[nodiscard]] Fd* slot(int fd);
  // The slot of an open fd, or nullptr.
  [[nodiscard]] Fd* at(int fd);
  // Claim the lowest free slot: its fd, or W_EMFILE.
  int open_slot();
  int install(std::unique_ptr<socket::Socket> s);
  // revents for one slot right now (0 = nothing).
  [[nodiscard]] short readiness(const WPollFd& p);

  core::Host& host_;
  Options opts_;
  core::Host::Process* proc_;
  std::vector<Fd> fds_;
  std::size_t open_ = 0;
  Stats stats_;
};

}  // namespace nectar::wload
