#include "mpisim/scheduler.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mpisim/error.hpp"
#include "obs/memory.hpp"
#include "obs/spans.hpp"
#include "support/log.hpp"
#include "support/spec.hpp"

// Sanitizer fiber annotations: without these, swapcontext looks like a wild
// stack change to ASan and a missing happens-before to TSan.
#if defined(__SANITIZE_ADDRESS__)
#define MPISECT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPISECT_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MPISECT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPISECT_TSAN_FIBERS 1
#endif
#endif
#if defined(MPISECT_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MPISECT_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace mpisect::mpisim {

// ---------------------------------------------------------------------------
// Executor base: waitpoint registry, abort wake, quiescence dispatch
// ---------------------------------------------------------------------------

Executor::~Executor() = default;

void Executor::add_waitpoint(WaitPoint* wp) {
  const std::lock_guard lock(reg_mu_);
  wp->reg_index_ = waitpoints_.size();
  waitpoints_.push_back(wp);
}

void Executor::remove_waitpoint(WaitPoint* wp) {
  // O(1) swap-remove via the index stashed on the waitpoint — a 65k-rank
  // world tears down one waitpoint per channel, and a linear registry scan
  // per removal would make teardown quadratic.
  const std::lock_guard lock(reg_mu_);
  const std::size_t i = wp->reg_index_;
  if (i < waitpoints_.size() && waitpoints_[i] == wp) {
    waitpoints_[i] = waitpoints_.back();
    waitpoints_[i]->reg_index_ = i;
    waitpoints_.pop_back();
  }
}

void Executor::set_quiescence_handler(std::function<void()> handler) {
  const std::lock_guard lock(reg_mu_);
  quiescence_ = std::move(handler);
}

void Executor::fire_quiescence() {
  std::function<void()> handler;
  {
    const std::lock_guard lock(reg_mu_);
    handler = quiescence_;
  }
  if (handler) {
    MPISECT_LOG_DEBUG("scheduler: quiescence — every live rank parked with "
                      "no wake pending");
    handler();
  }
}

void Executor::wake_all() noexcept {
  const std::lock_guard lock(reg_mu_);
  for (WaitPoint* wp : waitpoints_) do_wake(*wp);
}

void Executor::yield() noexcept {
  // Thread-per-rank backend (and off-fiber callers): every rank has its own
  // OS thread, so an OS yield is all the fairness there is to give.
  std::this_thread::yield();
}

void Executor::do_wake(WaitPoint& wp) {
  // Bump the epoch under the owner mutex: a waiter holds that mutex from
  // reading the epoch until its cv wait releases it, so the bump either
  // happens-before the epoch read (the waiter then returns immediately) or
  // the notify finds the waiter already blocked. Never a lost wake.
  {
    const std::lock_guard lock(wp.owner_mu_);
    wp.epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  wp.cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Threads backend: one OS thread per rank, condition-variable waits
// ---------------------------------------------------------------------------

namespace {

/// Set for threads spawned by ThreadExecutor::run; rank waits count towards
/// quiescence, external waiters (unit tests poking a Channel from a raw
/// thread) do not.
thread_local bool tl_rank_thread = false;

}  // namespace

class ThreadExecutor final : public Executor {
 public:
  ThreadExecutor() = default;

  void run(int n, const std::function<void(int)>& body) override {
    {
      const std::lock_guard lock(mu_);
      n_ = n;
      alive_ = n;
      blocked_ = 0;
      waiters_.clear();
      fired_ = false;
    }
    stats_.reset();
    const obs::Span run_span("sched.run");
    MPISECT_LOG_DEBUG("scheduler: threads backend, %d ranks", n);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      threads.emplace_back([this, &body, r] {
        tl_rank_thread = true;
        body(r);
        tl_rank_thread = false;
        bool fire = false;
        {
          const std::lock_guard lock(mu_);
          --alive_;
          fire = quiescent_locked();
        }
        // A rank exiting can strand the rest (orphaned waits).
        if (fire) fire_quiescence();
      });
    }
    for (auto& t : threads) t.join();
  }

  [[nodiscard]] const char* backend_name() const noexcept override {
    return "threads";
  }
  [[nodiscard]] int workers() const noexcept override { return n_; }

 protected:
  void do_wait(WaitPoint& wp, std::unique_lock<std::mutex>& lk) override {
    const std::uint64_t epoch = wp.epoch_.load(std::memory_order_relaxed);
    const bool tracked = tl_rank_thread;
    bool fire = false;
    if (tracked) {
      stats_.parks.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard lock(mu_);
      ++blocked_;
      waiters_.push_back({&wp, epoch});
      fire = quiescent_locked();
    }
    if (fire) {
      // We still hold the owner mutex; the handler ends in World::abort(),
      // whose wake_all needs every owner mutex — release around the call.
      lk.unlock();
      fire_quiescence();
      lk.lock();
    }
    wp.cv_.wait(lk, [&wp, epoch] {
      return wp.epoch_.load(std::memory_order_relaxed) != epoch;
    });
    if (tracked) {
      const std::lock_guard lock(mu_);
      --blocked_;
      const auto it =
          std::find(waiters_.begin(), waiters_.end(), Waiter{&wp, epoch});
      if (it != waiters_.end()) {
        *it = waiters_.back();
        waiters_.pop_back();
      }
    }
  }

  void do_notify(WaitPoint& wp) override {
    // Caller holds wp's owner mutex, so no blocked or about-to-block waiter
    // can miss this bump (see do_wake for the argument).
    wp.epoch_.fetch_add(1, std::memory_order_relaxed);
    wp.cv_.notify_all();
    stats_.wakes.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Waiter {
    WaitPoint* wp;
    std::uint64_t epoch;
    bool operator==(const Waiter&) const = default;
  };

  /// Caller holds mu_. Quiescent = every live rank is blocked AND every
  /// blocked rank's recorded epoch is still current (no wake in flight).
  /// Any state change needs a running rank, and a rank that notified then
  /// blocked synchronizes through mu_, so a stale epoch read cannot fake
  /// quiescence.
  bool quiescent_locked() {
    if (fired_ || alive_ <= 0 || blocked_ != alive_) return false;
    for (const Waiter& w : waiters_) {
      if (w.wp->epoch_.load(std::memory_order_relaxed) != w.epoch) {
        return false;
      }
    }
    fired_ = true;
    return true;
  }

  std::mutex mu_;
  int n_ = 0;
  int alive_ = 0;
  int blocked_ = 0;
  std::vector<Waiter> waiters_;
  bool fired_ = false;
};

// ---------------------------------------------------------------------------
// Cooperative backend: stackful ucontext fibers on a fixed worker pool
// ---------------------------------------------------------------------------

class FiberExecutor;

/// One rank of the current run: its fiber context, its stack, and the
/// handoff slots the worker and the fiber use to talk across swapcontext.
struct FiberTask {
  ucontext_t uc{};
  void* stack_bottom = nullptr;  ///< usable stack low address (slab chunk)
  std::size_t stack_size = 0;
  int rank = -1;
  FiberExecutor* exec = nullptr;
  const std::function<void(int)>* body = nullptr;
  bool finished = false;
  /// Stack + context are materialized by the first worker that resumes the
  /// task (lazy: unstarted ranks hold no stack, finished ranks give theirs
  /// back to the pool, so live stack demand tracks concurrently-active
  /// ranks, not nranks).
  bool started = false;
  /// Where to switch back to; re-set by whichever worker resumes us, so a
  /// task migrating between workers always returns to the right one.
  ucontext_t* ret_uc = nullptr;
  /// Park handshake. A parking fiber registers itself on the waitpoint and
  /// releases the owner mutex BEFORE switching out (so lock ownership stays
  /// with the fiber), which means a notifier can move it to the ready queue
  /// while its context is still being saved. `resumable` closes that race:
  /// cleared by the fiber before registering, set by its worker once
  /// swapcontext has returned (context fully saved); a resuming worker
  /// spins until it is set.
  std::atomic<bool> resumable{true};
  /// Steady-clock stamp of the wake that made this task ready; consumed by
  /// the resuming worker for the switch-latency stat. 0 = not timing.
  std::atomic<std::uint64_t> wake_ns{0};
#if defined(MPISECT_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
  void* ret_tsan = nullptr;
#endif
#if defined(MPISECT_ASAN_FIBERS)
  void* asan_save = nullptr;
  const void* ret_stack_bottom = nullptr;
  std::size_t ret_stack_size = 0;
#endif
};

namespace {

constexpr std::size_t kDefaultStackKb = 1024;
constexpr std::size_t kMinStackKb = 64;

std::size_t fiber_stack_bytes(std::size_t stack_kb) noexcept {
  std::size_t kb = kDefaultStackKb;
  if (stack_kb > 0) {
    kb = std::max(kMinStackKb, stack_kb);
  } else if (const char* env = std::getenv("MPISECT_STACK_KB")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= static_cast<long>(kMinStackKb)) kb = static_cast<std::size_t>(v);
  }
  return kb * 1024;
}

/// The fiber currently executing on this worker thread. Accessed only
/// through the noinline accessors below: a fiber can migrate between worker
/// threads across a park, and routing every access through an opaque call
/// keeps the compiler from caching the TLS address across a swapcontext.
thread_local FiberTask* tl_current_fiber = nullptr;

__attribute__((noinline)) FiberTask* current_fiber() {
  return tl_current_fiber;
}

__attribute__((noinline)) void set_current_fiber(FiberTask* t) {
  tl_current_fiber = t;
}

/// Switch from the currently running fiber back to its worker. final_exit
/// marks the fiber's last switch (it will never be resumed).
void fiber_switch_out(FiberTask& t, bool final_exit) {
#if defined(MPISECT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(final_exit ? nullptr : &t.asan_save,
                                 t.ret_stack_bottom, t.ret_stack_size);
#else
  (void)final_exit;
#endif
#if defined(MPISECT_TSAN_FIBERS)
  __tsan_switch_to_fiber(t.ret_tsan, 0);
#endif
  swapcontext(&t.uc, t.ret_uc);
  // Only a parked fiber comes back here (a finished one never resumes).
#if defined(MPISECT_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(t.asan_save, &t.ret_stack_bottom,
                                  &t.ret_stack_size);
#endif
}

void fiber_trampoline() {
  FiberTask* t = current_fiber();
#if defined(MPISECT_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &t->ret_stack_bottom,
                                  &t->ret_stack_size);
#endif
  (*t->body)(t->rank);
  t->finished = true;
  fiber_switch_out(*t, /*final_exit=*/true);
  // Unreachable: a finished fiber is never put back on the ready queue.
  MPISECT_LOG_ERROR("fiber %d resumed after exit", t->rank);
  std::abort();
}

}  // namespace

class FiberExecutor final : public Executor {
 public:
  explicit FiberExecutor(int workers, std::size_t stack_kb = 0)
      : workers_(std::max(1, workers)),
        stack_bytes_(fiber_stack_bytes(stack_kb)) {}

  ~FiberExecutor() override {
    const std::lock_guard lock(pool_mu_);
    for (const Slab& s : slabs_) munmap(s.base, s.bytes);
  }

  void run(int n, const std::function<void(int)>& body) override {
    {
      const std::lock_guard lock(mu_);
      total_ = n;
      finished_ = 0;
      running_ = 0;
      parked_count_ = 0;
      fired_ = false;
      shutdown_ = false;
    }
    stats_.reset();
    // Latch the wall-clock instrumentation decision once per run: the
    // hot paths below read a plain bool instead of the atomic, and the
    // decision cannot flip mid-run. Timing never touches virtual time —
    // it only reads the steady clock around scheduling transitions.
    timed_ = obs::timing_enabled();
    const obs::Span run_span("sched.run");
    MPISECT_LOG_DEBUG("scheduler: cooperative backend, %d ranks on %d workers",
                      n, std::min(workers_, std::max(1, n)));
    tasks_.clear();
    tasks_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      auto t = std::make_unique<FiberTask>();
      t->rank = r;
      t->exec = this;
      t->body = &body;
      // Stack + makecontext happen lazily on first resume (see
      // start_task): an unstarted rank costs one FiberTask, not a stack
      // mapping, which is what lets 65k-rank worlds start up in O(active).
      tasks_.push_back(std::move(t));
    }
    {
      const std::lock_guard lock(mu_);
      for (const auto& t : tasks_) ready_.push_back(t.get());
    }

    const int nw = std::min(workers_, std::max(1, n));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nw));
    for (int i = 0; i < nw; ++i) {
      pool.emplace_back([this] { worker_main(); });
    }
    {
      std::unique_lock lock(mu_);
      done_cv_.wait(lock, [this] { return finished_ == total_; });
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : pool) w.join();
    // Every task has finished (done_cv_ gated on it), and finished tasks
    // released their stacks + sanitizer fibers on the worker that retired
    // them — nothing left to tear down but the task records.
    tasks_.clear();
  }

  [[nodiscard]] const char* backend_name() const noexcept override {
    return "cooperative";
  }
  [[nodiscard]] int workers() const noexcept override { return workers_; }

  [[nodiscard]] std::size_t ready_depth() const noexcept override {
    const std::lock_guard lock(mu_);
    return ready_.size();
  }

  void yield() noexcept override {
    FiberTask* t = current_fiber();
    if (t == nullptr || t->exec != this) {
      std::this_thread::yield();
      return;
    }
    // Go to the back of the ready queue so every runnable rank gets CPU
    // time before we spin again. Same handshake as the park path: clear
    // `resumable` before queueing, the worker re-sets it once swapcontext
    // has fully saved this context. The task sits in ready_ (not parked),
    // so quiescence correctly stays off while a yielding rank exists.
    t->resumable.store(false, std::memory_order_relaxed);
    {
      const std::lock_guard g(mu_);
      ready_.push_back(t);
    }
    work_cv_.notify_one();
    fiber_switch_out(*t, /*final_exit=*/false);
  }

 protected:
  void do_wait(WaitPoint& wp, std::unique_lock<std::mutex>& lk) override {
    FiberTask* t = current_fiber();
    if (t == nullptr || t->exec != this) {
      // Off-fiber caller (unit tests, external threads): epoch-guarded cv
      // wait, invisible to quiescence accounting.
      const std::uint64_t epoch = wp.epoch_.load(std::memory_order_relaxed);
      wp.cv_.wait(lk, [&wp, epoch] {
        return wp.epoch_.load(std::memory_order_relaxed) != epoch;
      });
      return;
    }
    // Park. Register on the waitpoint while still holding the owner mutex
    // — a notifier (which must hold it to notify) can therefore never miss
    // a half-parked task — then release the mutex here on the fiber, so
    // lock ownership never crosses a context switch, and hand the CPU back
    // to the worker. When a notify (or abort wake) moves us to the ready
    // queue, a worker resumes us here; re-acquire the owner mutex to
    // restore the caller's invariant.
    t->resumable.store(false, std::memory_order_relaxed);
    stats_.parks.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard g(mu_);
      wp.parked_.push_back(t);
      ++parked_count_;
    }
    lk.unlock();
    fiber_switch_out(*t, /*final_exit=*/false);
    lk.lock();
  }

  void do_notify(WaitPoint& wp) override {
    // Caller holds wp's owner mutex; see ThreadExecutor::do_notify.
    wp.epoch_.fetch_add(1, std::memory_order_relaxed);
    wp.cv_.notify_all();
    wake_parked(wp);
  }

  void do_wake(WaitPoint& wp) override {
    Executor::do_wake(wp);  // epoch bump + cv for off-fiber waiters
    wake_parked(wp);
  }

 private:
  struct Stack {
    void* bottom;
    std::size_t bytes;
  };
  struct Slab {
    void* base;
    std::size_t bytes;
  };
  /// Stacks per mmap slab. A guard-paged mapping costs two kernel VMAs
  /// (PROT_NONE page + stack), and vm.max_map_count defaults to 65530 — so
  /// one mapping per fiber caps the simulator near 32k concurrent ranks.
  /// Carving 16 stacks out of each slab keeps the VMA count ~16x below
  /// that wall (65536 ranks ~= 8192 VMAs). The slab's low guard page still
  /// faults runaway recursion; within a slab an overflow must first cross
  /// an entire neighbouring stack, which the default 1 MiB size makes a
  /// diagnosed-in-practice non-event.
  static constexpr std::size_t kStacksPerSlab = 16;

  void allocate_stack(FiberTask& t) {
    bool reused = false;
    {
      const std::lock_guard lock(pool_mu_);
      if (!stack_pool_.empty()) {
        const Stack s = stack_pool_.back();
        stack_pool_.pop_back();
        t.stack_bottom = s.bottom;
        t.stack_size = s.bytes;
        reused = true;
      }
    }
    if (!reused) {
      const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
      const std::size_t stack_bytes =
          ((stack_bytes_ + page - 1) / page) * page;
      const std::size_t bytes = page + kStacksPerSlab * stack_bytes;
      void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
      require(base != MAP_FAILED, Err::Internal, "fiber stack mmap failed");
      // Guard page at the low end: stacks grow down, so an overflow off
      // the slab faults instead of silently corrupting a neighbouring
      // mapping.
      mprotect(base, page, PROT_NONE);
      char* cursor = static_cast<char*>(base) + page;
      {
        const std::lock_guard lock(pool_mu_);
        slabs_.push_back({base, bytes});
        // Hand the caller the lowest chunk; pool the rest.
        for (std::size_t i = 1; i < kStacksPerSlab; ++i) {
          stack_pool_.push_back({cursor + i * stack_bytes, stack_bytes});
        }
      }
      t.stack_bottom = cursor;
      t.stack_size = stack_bytes;
    }
    stats_.stack_bytes.fetch_add(t.stack_size, std::memory_order_relaxed);
    const std::uint64_t live =
        live_stack_bytes_.fetch_add(t.stack_size,
                                    std::memory_order_relaxed) +
        t.stack_size;
    obs::update_max(stats_.stack_bytes_hwm, live);
    if (mem_ != nullptr) mem_->rank(t.rank).add(t.stack_size);
  }

  void release_stack(FiberTask& t) {
    // Stacks are reused across ranks within a run and across run() calls;
    // the slabs die with the executor.
    live_stack_bytes_.fetch_sub(t.stack_size, std::memory_order_relaxed);
    if (mem_ != nullptr) mem_->rank(t.rank).sub(t.stack_size);
    const std::lock_guard lock(pool_mu_);
    stack_pool_.push_back({t.stack_bottom, t.stack_size});
    t.stack_bottom = nullptr;
  }

  /// First resume of a task: give it a stack and a context. Runs on the
  /// resuming worker, outside the scheduler lock (mmap under mu_ would
  /// serialize every worker behind a syscall).
  void start_task(FiberTask& t) {
    allocate_stack(t);
    (void)getcontext(&t.uc);
    t.uc.uc_stack.ss_sp = t.stack_bottom;
    t.uc.uc_stack.ss_size = t.stack_size;
    t.uc.uc_link = nullptr;
    makecontext(&t.uc, fiber_trampoline, 0);
#if defined(MPISECT_TSAN_FIBERS)
    t.tsan_fiber = __tsan_create_fiber(0);
#endif
    t.started = true;
  }

  /// Move every task parked on wp to the ready queue.
  void wake_parked(WaitPoint& wp) {
    bool woke = false;
    {
      const std::lock_guard lock(mu_);
      if (!wp.parked_.empty()) {
        const std::uint64_t stamp = timed_ ? obs::now_ns() : 0;
        for (void* p : wp.parked_) {
          auto* t = static_cast<FiberTask*>(p);
          if (stamp != 0) t->wake_ns.store(stamp, std::memory_order_relaxed);
          ready_.push_back(t);
          --parked_count_;
        }
        stats_.wakes.fetch_add(wp.parked_.size(), std::memory_order_relaxed);
        const auto depth = static_cast<std::uint64_t>(ready_.size());
        if (depth > stats_.max_ready.load(std::memory_order_relaxed)) {
          stats_.max_ready.store(depth, std::memory_order_relaxed);
        }
        stats_.ready_depth_sum.fetch_add(depth, std::memory_order_relaxed);
        stats_.ready_depth_samples.fetch_add(1, std::memory_order_relaxed);
        wp.parked_.clear();
        woke = true;
      }
    }
    if (woke) work_cv_.notify_all();
  }

  /// Caller holds mu_. All live tasks parked, nothing ready or running, no
  /// wake pending (a pending wake is a ready task) — exact deadlock.
  bool quiescent_locked() {
    if (fired_ || running_ != 0 || !ready_.empty()) return false;
    if (parked_count_ == 0 || finished_ >= total_) return false;
    fired_ = true;
    return true;
  }

  void worker_main() {
    ucontext_t worker_uc;
#if defined(MPISECT_TSAN_FIBERS)
    void* const worker_tsan = __tsan_get_current_fiber();
#endif
#if defined(MPISECT_ASAN_FIBERS)
    void* asan_save = nullptr;
#endif
    std::unique_lock lock(mu_);
    for (;;) {
      const std::uint64_t t_idle0 = timed_ ? obs::now_ns() : 0;
      work_cv_.wait(lock, [this] { return shutdown_ || !ready_.empty(); });
      if (timed_) {
        stats_.idle_ns.fetch_add(obs::now_ns() - t_idle0,
                                 std::memory_order_relaxed);
      }
      if (ready_.empty()) return;  // shutdown
      FiberTask* t = ready_.front();
      ready_.pop_front();
      ++running_;
      lock.unlock();
      stats_.switches.fetch_add(1, std::memory_order_relaxed);

      // A freshly notified task may still be mid-park on another worker
      // (its context not yet saved); wait for the handshake. The window is
      // one swapcontext, so spinning beats blocking.
      while (!t->resumable.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (!t->started) start_task(*t);

      std::uint64_t t_run0 = 0;
      if (timed_) {
        t_run0 = obs::now_ns();
        // Wake-to-resume latency: how long a woken fiber sat in the ready
        // queue before a worker picked it up.
        const std::uint64_t w = t->wake_ns.exchange(0,
                                                    std::memory_order_relaxed);
        if (w != 0 && t_run0 > w) {
          stats_.switch_latency_ns.fetch_add(t_run0 - w,
                                             std::memory_order_relaxed);
          stats_.switch_latency_samples.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
      }

      t->ret_uc = &worker_uc;
#if defined(MPISECT_TSAN_FIBERS)
      t->ret_tsan = worker_tsan;
#endif
      set_current_fiber(t);
#if defined(MPISECT_ASAN_FIBERS)
      __sanitizer_start_switch_fiber(&asan_save, t->stack_bottom,
                                     t->stack_size);
#endif
#if defined(MPISECT_TSAN_FIBERS)
      __tsan_switch_to_fiber(t->tsan_fiber, 0);
#endif
      swapcontext(&worker_uc, &t->uc);
#if defined(MPISECT_ASAN_FIBERS)
      __sanitizer_finish_switch_fiber(asan_save, nullptr, nullptr);
#endif
      set_current_fiber(nullptr);
      if (timed_) {
        stats_.busy_ns.fetch_add(obs::now_ns() - t_run0,
                                 std::memory_order_relaxed);
      }

      if (t->finished) {
        // Retire the fiber's resources right here: its context will never
        // be resumed, so the stack can serve the next unstarted rank.
#if defined(MPISECT_TSAN_FIBERS)
        __tsan_destroy_fiber(t->tsan_fiber);
        t->tsan_fiber = nullptr;
#endif
        release_stack(*t);
        bool fire = false;
        bool all_done = false;
        {
          const std::lock_guard g(mu_);
          --running_;
          ++finished_;
          all_done = finished_ == total_;
          fire = quiescent_locked();
        }
        if (all_done) done_cv_.notify_all();
        if (fire) fire_quiescence();
      } else {
        // The task parked (it registered itself on the waitpoint and
        // released the owner mutex before switching out). Its context is
        // now fully saved: complete the handshake so a notified resume can
        // proceed, and update the quiescence accounting.
        bool fire = false;
        {
          const std::lock_guard g(mu_);
          --running_;
          fire = quiescent_locked();
        }
        t->resumable.store(true, std::memory_order_release);
        if (fire) fire_quiescence();
      }
      lock.lock();
    }
  }

  int workers_;
  std::size_t stack_bytes_;
  /// Whether this run reads wall clocks (latched from obs::timing_enabled
  /// before the worker pool starts; workers see it via thread creation).
  bool timed_ = false;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<FiberTask*> ready_;
  std::vector<std::unique_ptr<FiberTask>> tasks_;
  std::mutex pool_mu_;
  std::vector<Stack> stack_pool_;
  std::vector<Slab> slabs_;
  std::atomic<std::uint64_t> live_stack_bytes_{0};
  int total_ = 0;
  int finished_ = 0;
  int running_ = 0;
  int parked_count_ = 0;
  bool fired_ = false;
  bool shutdown_ = false;
};

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

int resolve_workers(int workers) noexcept {
  if (workers > 0) return workers;
  if (const char* env = std::getenv("MPISECT_WORKERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::unique_ptr<Executor> make_executor(const ExecModel& model) {
  if (model.backend == ExecBackend::Threads) {
    return std::make_unique<ThreadExecutor>();
  }
  return std::make_unique<FiberExecutor>(resolve_workers(model.workers),
                                         model.stack_kb);
}

// ---------------------------------------------------------------------------
// ExecModel: the --exec spec
// ---------------------------------------------------------------------------

const char* ExecModel::name() const noexcept {
  return backend == ExecBackend::Threads ? "threads" : "cooperative";
}

std::string ExecModel::spec() const {
  std::string s = name();
  if (backend == ExecBackend::Threads) return s;
  char sep = ':';
  if (workers > 0) {
    s += sep;
    s += "workers=" + std::to_string(workers);
    sep = ',';
  }
  if (stack_kb > 0) {
    s += sep;
    s += "stack=" + std::to_string(stack_kb);
  }
  return s;
}

ExecModel ExecModel::parse(const std::string& spec) {
  support::SpecParts parts;
  try {
    parts = support::parse_spec(spec);
  } catch (const std::invalid_argument& e) {
    throw MpiError(Err::Arg, std::string("exec ") + e.what());
  }

  ExecModel m;
  if (parts.preset == "cooperative") {
    m.backend = ExecBackend::Cooperative;
  } else if (parts.preset == "threads") {
    m.backend = ExecBackend::Threads;
  } else {
    throw MpiError(Err::Arg, "unknown exec preset '" + parts.preset +
                                 "' (expected " + choices() + ")");
  }
  require(parts.options.empty() || m.backend == ExecBackend::Cooperative,
          Err::Arg, "threads takes no options");

  for (const auto& [key, raw] : parts.options) {
    int value = 0;
    try {
      value = support::spec_int(raw);
    } catch (const std::invalid_argument& e) {
      throw MpiError(Err::Arg, std::string("exec ") + e.what());
    }
    if (key == "workers") {
      m.workers = value;
    } else if (key == "stack") {
      m.stack_kb = static_cast<std::size_t>(value);
    } else {
      throw MpiError(Err::Arg,
                     "unknown exec option '" + key + "' for cooperative");
    }
  }
  return m;
}

std::string ExecModel::choices() {
  return "cooperative[:workers=N,stack=KB]|threads";
}

}  // namespace mpisect::mpisim
