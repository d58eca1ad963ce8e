#ifndef PMG_PERFBENCH_REPLAY_H_
#define PMG_PERFBENCH_REPLAY_H_

/// \file replay.h
/// Host cost of the access-pricing layers, measured on a recorded window
/// of a workload's own access stream. The window is replayed into a fresh
/// memsim::Machine (whole pricing path + EndEpoch, with and without a
/// host pool) and, separately, into CpuCache, Tlb, PageTable::Lookup and
/// NearMemoryCache::Access alone.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pmg/memsim/access_observer.h"
#include "pmg/memsim/machine.h"

namespace pmg::perfbench {

/// Allocation events of a whole run plus a bounded window of its access
/// and epoch events. Recording starts at the first epoch that begins once
/// the start point is reached (never, until one is set) and stops after
/// `window` accesses.
class AccessWindow {
 public:
  enum Kind : uint8_t { kAccess = 0, kEpochBegin, kEpochEnd };
  struct Event {
    VirtAddr addr = 0;
    uint32_t t = 0;  ///< Thread (access) or active threads (epoch begin).
    uint32_t bytes = 0;
    Kind kind = kAccess;
    AccessType type = AccessType::kRead;
  };
  struct Alloc {
    VirtAddr base = 0;
    uint64_t bytes = 0;
    std::string name;
  };

  explicit AccessWindow(uint64_t window) : window_(window) {}

  /// Start at the next epoch.
  void StartAtNextEpoch() { skip_ = seen_; }

  /// Regions mapped after the window closed are not needed to replay it
  /// (and may belong to a rebuilt machine that reuses the address space).
  void OnAlloc(VirtAddr base, uint64_t bytes, std::string_view name) {
    if (!closed()) allocs_.push_back(Alloc{base, bytes, std::string(name)});
  }
  void OnAccess(ThreadId t, VirtAddr addr, uint32_t bytes, AccessType type) {
    ++seen_;
    if (recording_) {
      events_.push_back(Event{addr, t, bytes, kAccess, type});
      if (++recorded_ == window_) recording_ = false;
    }
  }
  void OnEpochBegin(uint32_t active) {
    if (!started_ && seen_ >= skip_) started_ = recording_ = true;
    if (recording_) events_.push_back(Event{0, active, 0, kEpochBegin, {}});
  }
  void OnEpochEnd() {
    if (recording_) events_.push_back(Event{0, 0, 0, kEpochEnd, {}});
  }

  const std::vector<Alloc>& allocs() const { return allocs_; }
  const std::vector<Event>& events() const { return events_; }
  uint64_t recorded() const { return recorded_; }
  bool closed() const { return started_ && !recording_; }

 private:
  uint64_t skip_ = ~0ull;
  uint64_t window_;
  uint64_t seen_ = 0;
  uint64_t recorded_ = 0;
  bool started_ = false;
  bool recording_ = false;
  std::vector<Alloc> allocs_;
  std::vector<Event> events_;
};

/// Feeds an AccessWindow from a machine the harness owns.
class WindowObserver : public memsim::AccessObserver {
 public:
  explicit WindowObserver(AccessWindow* window) : window_(window) {}
  void OnAlloc(memsim::RegionId, VirtAddr base, uint64_t bytes,
               std::string_view name) override {
    window_->OnAlloc(base, bytes, name);
  }
  void OnFree(memsim::RegionId) override {}
  void OnAccess(ThreadId t, VirtAddr addr, uint32_t bytes,
                AccessType type) override {
    window_->OnAccess(t, addr, bytes, type);
  }
  void OnEpochBegin(uint32_t active) override {
    window_->OnEpochBegin(active);
  }
  uint64_t OnEpochEnd() override {
    window_->OnEpochEnd();
    return 0;
  }

 private:
  AccessWindow* window_;
};

struct ReplayResult {
  bool ok = false;          ///< Replayed regions landed at recorded bases.
  uint64_t accesses = 0;    ///< Accesses in the window.
  uint64_t epochs = 0;      ///< Epochs closed per replay pass.
  double access_ns = 0;     ///< Machine::Access, host ns per access.
  double end_epoch_us = 0;  ///< Machine::EndEpoch, host us per epoch.
  double phased_x = 0;      ///< Pass time with a host pool / without.
  double cpu_cache_ns = 0;  ///< CpuCache::AccessLine per access.
  double tlb_ns = 0;        ///< Tlb lookup(+insert) per CPU-cache miss.
  double page_table_ns = 0; ///< PageTable::Lookup per CPU-cache miss.
  double near_mem_ns = 0;   ///< NearMemoryCache::Access per miss.
  double cpu_cache_hit_pct = 0;  ///< Of the replayed window.
  double local_pct = 0;          ///< Of the replayed window.
};

/// Replays `window` on machines configured as `config`; every region is
/// mapped with `policy`. `pool_workers` sizes the host pool of the
/// phased-pricing comparison.
ReplayResult ReplayWindow(const AccessWindow& window,
                          const memsim::MachineConfig& config,
                          const memsim::PagePolicy& policy,
                          uint32_t pool_workers);

/// Host microseconds of one HostPool::RunTasks of `workers` empty tasks
/// (median over many dispatches).
double HostPoolDispatchUs(uint32_t workers);

}  // namespace pmg::perfbench

#endif  // PMG_PERFBENCH_REPLAY_H_
