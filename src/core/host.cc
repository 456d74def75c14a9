#include "core/host.h"

namespace nectar::core {

Host::Host(sim::Simulator& sim, HostParams params, std::string name)
    : name_(std::move(name)),
      params_(std::move(params)),
      sim_(sim),
      cpu_(sim, params_.cpu_scale),
      pool_(sim),
      vm_(sim, cpu_, params_.vm),
      pin_cache_(vm_, params_.pin_cache_pages),
      intr_acct_(cpu_.make_account("intr")),
      wheel_(sim) {
  stack_ = std::make_unique<net::NetStack>(net::HostEnv{
      sim_, cpu_, pool_, vm_, pin_cache_, wheel_, params_.costs, intr_acct_});
}

drivers::CabDriver& Host::attach_cab(hippi::Fabric& fabric, hippi::Addr haddr,
                                     net::IpAddr ip, std::size_t mtu) {
  auto dev = std::make_unique<cab::CabDevice>(sim_, fabric, haddr, params_.cab);
  auto drv = std::make_unique<drivers::CabDriver>(
      "cab" + std::to_string(cabs_.size()), ip, *dev, mtu);
  if (tel_ != nullptr) {
    dev->set_telemetry(tel_, tel_pid_);
    register_cab_gauges(*dev, cabs_.size());
  }
  if (ovl_ != nullptr) register_cab_samplers(*dev);
  cabs_.push_back(std::move(dev));
  auto& ref = *drv;
  stack_->add_ifnet(drv.get());
  devices_.push_back(std::move(drv));
  return ref;
}

drivers::EtherDriver& Host::attach_ether(drivers::EtherSegment& seg, net::IpAddr ip,
                                         std::size_t mtu) {
  auto drv = std::make_unique<drivers::EtherDriver>(
      "en" + std::to_string(devices_.size()), ip, seg, mtu);
  auto& ref = *drv;
  stack_->add_ifnet(drv.get());
  devices_.push_back(std::move(drv));
  return ref;
}

drivers::LoopbackDriver& Host::attach_loopback() {
  auto drv = std::make_unique<drivers::LoopbackDriver>();
  auto& ref = *drv;
  stack_->add_ifnet(drv.get());
  stack_->routes().add(drv->addr(), 32, drv.get());
  devices_.push_back(std::move(drv));
  return ref;
}

Host::Process& Host::create_process(const std::string& pname) {
  processes_.emplace_back(new Process{pname,
                                      mem::AddressSpace(name_ + "." + pname),
                                      cpu_.make_account(pname + ".user"),
                                      cpu_.make_account(pname + ".sys")});
  if (tel_ != nullptr) register_cpu_gauges(tel_accts_done_);
  return *processes_.back();
}

void Host::register_cpu_gauges(sim::AccountId first) {
  for (sim::AccountId i = first; i < cpu_.num_accounts(); ++i) {
    tel_->register_gauge(
        name_ + ".cpu." + cpu_.account_name(i) + ".busy_us", tel_pid_,
        [this, i] { return sim::to_usec(cpu_.busy(i)); });
  }
  tel_accts_done_ = cpu_.num_accounts();
}

void Host::register_cab_gauges(cab::CabDevice& dev, std::size_t index) {
  const std::string prefix = name_ + ".cab" + std::to_string(index);
  cab::CabDevice* d = &dev;
  tel_->register_gauge(prefix + ".nm_used_bytes", tel_pid_, [d] {
    return static_cast<double>(d->nm().used_bytes());
  });
  tel_->register_gauge(prefix + ".nm_live_packets", tel_pid_, [d] {
    return static_cast<double>(d->nm().live_packets());
  });
  tel_->register_gauge(prefix + ".sdma_qdepth", tel_pid_, [d] {
    return static_cast<double>(d->sdma().arb().size());
  });
  tel_->register_gauge(prefix + ".mdma_qdepth", tel_pid_, [d] {
    return static_cast<double>(d->mdma_xmit().arb().size());
  });
}

void Host::set_telemetry(telemetry::Telemetry* t) {
  tel_ = t;
  if (t == nullptr) {
    stack_->env().telemetry = nullptr;
    stack_->env().tel_pid = 0;
    return;
  }
  tel_pid_ = t->register_process(name_);
  stack_->env().telemetry = t;
  stack_->env().tel_pid = tel_pid_;
  for (std::size_t i = 0; i < cabs_.size(); ++i) {
    cabs_[i]->set_telemetry(t, tel_pid_);
    register_cab_gauges(*cabs_[i], i);
  }
  register_cpu_gauges(0);
  tel_->register_gauge(name_ + ".mbuf_in_use", tel_pid_, [this] {
    return static_cast<double>(pool_.in_use());
  });
}

void Host::register_cab_samplers(cab::CabDevice& dev) {
  cab::CabDevice* d = &dev;
  // The SDMA command queue has a configured depth; the transmit MDMA shares
  // it as a nominal bound (it has no hardware limit of its own, so the same
  // order-of-magnitude watermark applies).
  const std::uint64_t qcap = params_.cab.sdma.queue_depth;
  ovl_->add_sampler(overload::Resource::kArbQueue, [d, qcap] {
    return std::pair<std::uint64_t, std::uint64_t>(d->sdma().arb().size(), qcap);
  });
  ovl_->add_sampler(overload::Resource::kArbQueue, [d, qcap] {
    return std::pair<std::uint64_t, std::uint64_t>(d->mdma_xmit().arb().size(),
                                                   qcap);
  });
  ovl_->add_sampler(overload::Resource::kNetMem, [d] {
    return std::pair<std::uint64_t, std::uint64_t>(d->nm().used_bytes(),
                                                   d->nm().total_bytes());
  });
}

void Host::set_overload(overload::OverloadManager* ovl) {
  ovl_ = ovl;
  stack_->env().overload = ovl;
  if (ovl == nullptr) return;
  ovl->add_sampler(overload::Resource::kMbufPool,
                   [this, cap = ovl->config().mbuf_cap] {
                     return std::pair<std::uint64_t, std::uint64_t>(
                         pool_.in_use(), cap);
                   });
  for (auto& dev : cabs_) register_cab_samplers(*dev);
}

}  // namespace nectar::core
