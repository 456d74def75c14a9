// Host: one simulated machine — CPU, kernel memory, VM, mbuf pool, protocol
// stack, attached devices, and user processes.
#pragma once

#include <list>
#include <memory>

#include "core/host_params.h"
#include "drivers/cab_driver.h"
#include "drivers/ether_driver.h"
#include "drivers/loopback.h"
#include "mem/user_buffer.h"
#include "overload/overload.h"
#include "sim/timer_wheel.h"
#include "socket/socket.h"
#include "telemetry/telemetry.h"

namespace nectar::core {

class Host {
 public:
  Host(sim::Simulator& sim, HostParams params, std::string name);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const HostParams& params() const noexcept { return params_; }
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] sim::Cpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] mbuf::MbufPool& pool() noexcept { return pool_; }
  [[nodiscard]] mem::Vm& vm() noexcept { return vm_; }
  [[nodiscard]] mem::PinCache& pin_cache() noexcept { return pin_cache_; }
  [[nodiscard]] net::NetStack& stack() noexcept { return *stack_; }
  [[nodiscard]] sim::AccountId intr_acct() const noexcept { return intr_acct_; }
  [[nodiscard]] sim::TimerWheel& timer_wheel() noexcept { return wheel_; }

  // --- devices (owned by the host) -----------------------------------------

  drivers::CabDriver& attach_cab(hippi::Fabric& fabric, hippi::Addr haddr,
                                 net::IpAddr ip, std::size_t mtu = 32 * 1024);
  drivers::EtherDriver& attach_ether(drivers::EtherSegment& seg, net::IpAddr ip,
                                     std::size_t mtu = 1500);
  drivers::LoopbackDriver& attach_loopback();

  // --- processes ------------------------------------------------------------

  struct Process {
    std::string name;
    mem::AddressSpace as;
    sim::AccountId user_acct;
    sim::AccountId sys_acct;
    socket::ProcCtx ctx() { return socket::ProcCtx{as, user_acct, sys_acct}; }
  };
  Process& create_process(const std::string& pname);

  // --- measurement -----------------------------------------------------------

  [[nodiscard]] sim::Duration total_busy() const { return cpu_.total_busy(); }

  // --- telemetry -------------------------------------------------------------

  // Opt-in: register this host as a trace process, thread the registry
  // through the stack env and every attached CAB engine, and publish gauges
  // (per-account CPU busy time, outboard occupancy, DMA queue depths, mbuf
  // pool usage). Devices/processes created later are wired as they appear.
  void set_telemetry(telemetry::Telemetry* t);
  [[nodiscard]] telemetry::Telemetry* telemetry() noexcept { return tel_; }
  [[nodiscard]] int tel_pid() const noexcept { return tel_pid_; }

  // --- overload protection ---------------------------------------------------

  // Opt-in: thread the overload manager through the stack env (SYN admission
  // gate, descriptor gate, ECN marking) and register occupancy samplers for
  // every attached CAB's arbitration queues and outboard memory plus the
  // host mbuf pool. CABs attached later are wired as they appear.
  void set_overload(overload::OverloadManager* ovl);
  [[nodiscard]] overload::OverloadManager* overload() noexcept { return ovl_; }

 private:
  void register_cpu_gauges(sim::AccountId first);
  void register_cab_gauges(cab::CabDevice& dev, std::size_t index);
  void register_cab_samplers(cab::CabDevice& dev);

  std::string name_;
  HostParams params_;
  sim::Simulator& sim_;
  sim::Cpu cpu_;
  mbuf::MbufPool pool_;
  mem::Vm vm_;
  mem::PinCache pin_cache_;
  sim::AccountId intr_acct_;
  // Declared before stack_: the stack's timers live on the wheel, so the
  // stack must be destroyed first.
  sim::TimerWheel wheel_;
  std::unique_ptr<net::NetStack> stack_;
  std::vector<std::unique_ptr<net::Ifnet>> devices_;
  std::vector<std::unique_ptr<cab::CabDevice>> cabs_;
  // unique_ptr because Process embeds an immovable AddressSpace.
  std::vector<std::unique_ptr<Process>> processes_;
  telemetry::Telemetry* tel_ = nullptr;
  overload::OverloadManager* ovl_ = nullptr;
  int tel_pid_ = 0;
  sim::AccountId tel_accts_done_ = 0;  // CPU accounts already published as gauges
};

}  // namespace nectar::core
