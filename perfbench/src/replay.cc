#include "perfbench/src/replay.h"

#include <functional>

#include "perfbench/src/bench.h"
#include "pmg/memsim/cpu_cache.h"
#include "pmg/memsim/host_pool.h"
#include "pmg/memsim/near_memory.h"
#include "pmg/memsim/page_table.h"
#include "pmg/memsim/tlb.h"

namespace pmg::perfbench {
namespace {

using Event = AccessWindow::Event;

/// Maps every recorded region on `m`; false if any lands elsewhere than
/// recorded (the replayed addresses would then be meaningless).
bool MapRegions(const AccessWindow& w, const memsim::PagePolicy& policy,
                memsim::Machine* m) {
  for (const AccessWindow::Alloc& a : w.allocs()) {
    const memsim::RegionId id = m->Alloc(a.bytes, policy, a.name);
    if (m->BaseOf(id) != a.base) return false;
  }
  return true;
}

struct PassTime {
  double total_s = 0;
  double epoch_s = 0;
  uint64_t epochs = 0;
};

PassTime Pass(const std::vector<Event>& events, memsim::Machine* m) {
  PassTime p;
  auto end_epoch = [&]() {
    hostperf::WallTimer t;
    m->EndEpoch();
    p.epoch_s += t.Seconds();
    ++p.epochs;
  };
  hostperf::WallTimer total;
  for (const Event& e : events) {
    switch (e.kind) {
      case AccessWindow::kAccess:
        m->Access(e.t, e.addr, e.bytes, e.type);
        break;
      case AccessWindow::kEpochBegin:
        m->BeginEpoch(e.t);
        break;
      case AccessWindow::kEpochEnd:
        end_epoch();
        break;
    }
  }
  if (m->in_epoch()) end_epoch();
  p.total_s = total.Seconds();
  return p;
}

double PerOpNs(double seconds, uint64_t ops) {
  return ops == 0 ? 0 : seconds * 1e9 / static_cast<double>(ops);
}

}  // namespace

ReplayResult ReplayWindow(const AccessWindow& window,
                          const memsim::MachineConfig& config,
                          const memsim::PagePolicy& policy,
                          uint32_t pool_workers) {
  ReplayResult r;
  const std::vector<Event>& events = window.events();
  r.accesses = window.recorded();

  // Whole pricing path, inline: one warm-up pass (first-touch faults,
  // cache fill), then the timed pass.
  memsim::Machine inline_m(config);
  if (!MapRegions(window, policy, &inline_m)) return r;
  Pass(events, &inline_m);
  const memsim::MachineStats before = inline_m.stats();
  const PassTime inline_p = Pass(events, &inline_m);
  const memsim::MachineStats d = inline_m.stats() - before;
  r.epochs = inline_p.epochs;
  r.access_ns = PerOpNs(inline_p.total_s - inline_p.epoch_s, r.accesses);
  r.end_epoch_us =
      inline_p.epochs == 0 ? 0 : inline_p.epoch_s * 1e6 / inline_p.epochs;
  r.cpu_cache_hit_pct =
      d.accesses == 0 ? 0 : 100.0 * d.cpu_cache_hits / d.accesses;
  r.local_pct = 100.0 * d.LocalAccessFraction();

  // The same window with the phased engine's host pool attached.
  memsim::Machine phased_m(config);
  phased_m.SetHostPool(memsim::HostPool::ForWorkers(pool_workers));
  if (!MapRegions(window, policy, &phased_m)) return r;
  Pass(events, &phased_m);
  const PassTime phased_p = Pass(events, &phased_m);
  r.phased_x = phased_p.total_s / inline_p.total_s;

  // Components alone. The CPU cache sees every access; translation and
  // near-memory see only its misses, as in Machine::Access.
  const uint32_t threads = inline_m.MaxThreads();
  auto fresh_caches = [&]() {
    return std::vector<memsim::CpuCache>(
        threads, memsim::CpuCache(config.cpu_cache_lines));
  };
  std::vector<const Event*> misses;
  {
    std::vector<memsim::CpuCache> caches = fresh_caches();
    for (const Event& e : events) {
      if (e.kind == AccessWindow::kAccess &&
          !caches[e.t].AccessLine(e.addr / memsim::kCacheLineBytes)) {
        misses.push_back(&e);
      }
    }
  }
  {
    std::vector<memsim::CpuCache> caches = fresh_caches();
    uint64_t hits = 0;
    hostperf::WallTimer t;
    for (const Event& e : events) {
      if (e.kind == AccessWindow::kAccess) {
        hits += caches[e.t].AccessLine(e.addr / memsim::kCacheLineBytes);
      }
    }
    r.cpu_cache_ns = PerOpNs(t.Seconds(), r.accesses);
    if (hits + misses.size() != r.accesses) return r;
  }

  // Translation inputs of each miss, read off the warmed machine.
  struct MissInfo {
    VirtAddr page_base = 0;
    memsim::PageSizeClass cls = memsim::PageSizeClass::k4K;
    NodeId node = 0;
    PhysPage frame = 0;
  };
  std::vector<MissInfo> info;
  info.reserve(misses.size());
  uint32_t hint = ~0u;
  for (const Event* e : misses) {
    const memsim::ConstPageLookup lk =
        inline_m.page_table().LookupView(e->addr, &hint);
    info.push_back(MissInfo{
        lk.page_base, lk.cls, lk.page->node,
        lk.page->frame + (e->addr - lk.page_base) / memsim::kSmallPageBytes});
  }

  {
    std::vector<memsim::Tlb> tlbs(threads, memsim::Tlb(config.tlb));
    hostperf::WallTimer t;
    for (size_t i = 0; i < misses.size(); ++i) {
      memsim::Tlb& tlb = tlbs[misses[i]->t];
      if (!tlb.Lookup(info[i].page_base, info[i].cls)) {
        tlb.Insert(info[i].page_base, info[i].cls);
      }
    }
    r.tlb_ns = PerOpNs(t.Seconds(), misses.size());
  }
  {
    memsim::PageTable pt(config.thp_percent, config.seed);
    for (const AccessWindow::Alloc& a : window.allocs()) {
      const memsim::RegionId id = pt.CreateRegion(a.bytes, policy, a.name);
      if (pt.region(id).base != a.base) return r;
    }
    uint64_t sum = 0;
    hostperf::WallTimer t;
    for (const Event* e : misses) sum += pt.Lookup(e->addr).page_index;
    r.page_table_ns = PerOpNs(t.Seconds(), misses.size());
    if (sum == ~0ull) return r;  // Keeps the lookups observable.
  }
  {
    memsim::NearMemoryCache nm(
        config.topology.sockets,
        config.topology.dram_bytes_per_socket / memsim::kSmallPageBytes,
        config.near_mem_ways);
    uint64_t hits = 0;
    hostperf::WallTimer t;
    for (size_t i = 0; i < misses.size(); ++i) {
      hits += nm.Access(info[i].node, info[i].frame,
                        IsWrite(misses[i]->type))
                  .hit;
    }
    r.near_mem_ns = PerOpNs(t.Seconds(), misses.size());
    if (hits > misses.size()) return r;
  }
  r.ok = true;
  return r;
}

double HostPoolDispatchUs(uint32_t workers) {
  memsim::HostPool* pool = memsim::HostPool::ForWorkers(workers);
  const std::function<void(uint32_t)> empty = [](uint32_t) {};
  constexpr int kBatch = 200;
  std::vector<double> per_dispatch_us;
  for (int rep = 0; rep < 15; ++rep) {
    hostperf::WallTimer t;
    for (int i = 0; i < kBatch; ++i) pool->RunTasks(workers, empty);
    per_dispatch_us.push_back(t.Seconds() * 1e6 / kBatch);
  }
  return Median(per_dispatch_us);
}

}  // namespace pmg::perfbench
