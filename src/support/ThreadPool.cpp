#include "support/ThreadPool.h"

#include "support/Failure.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>

using namespace tracesafe;

namespace {

/// Which pool (if any) the current thread is a worker of, and its index.
/// Lets spawn() push to the local deque and pop() prefer it.
struct WorkerIdentity {
  ThreadPool *Pool = nullptr;
  int Index = -1;
};

thread_local WorkerIdentity CurrentWorker;

} // namespace

unsigned ThreadPool::defaultWorkerCount() {
  if (const char *Env = std::getenv("TRACESAFE_WORKERS")) {
    long N = std::strtol(Env, nullptr, 10);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw > 0 ? Hw : 1;
}

ThreadPool &ThreadPool::ofWidth(unsigned Workers) {
  if (Workers == 0)
    Workers = defaultWorkerCount();
  static std::mutex M;
  static std::map<unsigned, std::unique_ptr<ThreadPool>> Pools;
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<ThreadPool> &Pool = Pools[Workers];
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Workers);
  return *Pool;
}

int ThreadPool::currentIndex() const {
  return CurrentWorker.Pool == this ? CurrentWorker.Index : -1;
}

ThreadPool::ThreadPool(unsigned WorkerCount) {
  if (WorkerCount == 0)
    WorkerCount = defaultWorkerCount();
  Queues.reserve(WorkerCount);
  for (unsigned I = 0; I < WorkerCount; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I < WorkerCount; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    Stopping.store(true, std::memory_order_relaxed);
  }
  SleepCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::push(Task T) {
  int Self = CurrentWorker.Pool == this ? CurrentWorker.Index : -1;
  // Workers push to their own deque (popped LIFO below); external threads
  // round-robin over the queues so thieves find work anywhere.
  static std::atomic<unsigned> External{0};
  unsigned Target =
      Self >= 0 ? static_cast<unsigned>(Self)
                : External.fetch_add(1, std::memory_order_relaxed) %
                      Queues.size();
  {
    std::lock_guard<std::mutex> Lock(Queues[Target]->M);
    Queued.fetch_add(1, std::memory_order_relaxed);
    Queues[Target]->Q.push_back(std::move(T));
  }
  {
    std::lock_guard<std::mutex> Lock(SleepM);
  }
  SleepCv.notify_one();
}

bool ThreadPool::pop(Task &Out, int Self, TaskGroup *GroupOnly) {
  size_t N = Queues.size();
  // Own queue back first: depth-first locality for recursive searches.
  if (Self >= 0) {
    WorkerQueue &Own = *Queues[static_cast<size_t>(Self)];
    std::lock_guard<std::mutex> Lock(Own.M);
    if (!GroupOnly) {
      if (!Own.Q.empty()) {
        Out = std::move(Own.Q.back());
        Own.Q.pop_back();
        return true;
      }
    } else {
      for (size_t I = Own.Q.size(); I-- > 0;)
        if (Own.Q[I].Group == GroupOnly) {
          Out = std::move(Own.Q[I]);
          Own.Q.erase(Own.Q.begin() + static_cast<ptrdiff_t>(I));
          return true;
        }
    }
  }
  // Steal from the front of the other queues: the oldest task is the
  // shallowest subtree, i.e. the largest chunk of work per steal.
  size_t Start = Self >= 0 ? static_cast<size_t>(Self) + 1 : 0;
  for (size_t K = 0; K < N; ++K) {
    WorkerQueue &Victim = *Queues[(Start + K) % N];
    std::lock_guard<std::mutex> Lock(Victim.M);
    if (GroupOnly) {
      for (size_t I = 0; I < Victim.Q.size(); ++I)
        if (Victim.Q[I].Group == GroupOnly) {
          Out = std::move(Victim.Q[I]);
          Victim.Q.erase(Victim.Q.begin() + static_cast<ptrdiff_t>(I));
          return true;
        }
    } else if (!Victim.Q.empty()) {
      Out = std::move(Victim.Q.front());
      Victim.Q.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(Task &T) {
  Queued.fetch_sub(1, std::memory_order_relaxed); // claimed by pop()
  // Drain: once a group has faulted, its remaining tasks are retired
  // without running — the query is already lost to Unknown(EngineFault),
  // so the fastest safe thing is to get the pool idle again.
  if (!T.Group || !T.Group->faulted()) {
    try {
      faultMaybeStall(FaultSite::TaskStall);
      faultThrowInjected(FaultSite::TaskRun);
      T.Fn();
    } catch (...) {
      if (T.Group)
        T.Group->noteException(std::current_exception());
      // No group to report to: swallowing would hide a genuine bug, and
      // rethrowing would terminate the worker. Tasks are only ever
      // spawned through groups, so this cannot happen today; keep the
      // containment anyway (the exception is dropped, the pool lives).
    }
  }
  finish(T.Group);
  T.Fn = nullptr;
}

void ThreadPool::finish(TaskGroup *Group) {
  // The decrement must happen under DoneM: wait() re-acquires DoneM after
  // observing Outstanding == 0, so holding the lock across decrement and
  // notify guarantees the waiter cannot return (and the caller destroy the
  // group) while this thread still touches the group's mutex or cv.
  std::lock_guard<std::mutex> Lock(Group->DoneM);
  if (Group->Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1)
    Group->DoneCv.notify_all();
}

void ThreadPool::workerMain(unsigned Index) {
  CurrentWorker = {this, static_cast<int>(Index)};
  Task T;
  while (true) {
    if (pop(T, static_cast<int>(Index), nullptr)) {
      runTask(T);
      continue;
    }
    std::unique_lock<std::mutex> Lock(SleepM);
    if (Stopping.load(std::memory_order_relaxed))
      return;
    // push() publishes the task before taking SleepM, so the only missed
    // wakeup window is between the failed pop and this wait; the short
    // timeout bounds that race to a couple of milliseconds, which is noise
    // against the subtree-sized tasks the engines spawn.
    Idle.fetch_add(1, std::memory_order_relaxed);
    SleepCv.wait_for(Lock, std::chrono::milliseconds(2));
    Idle.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::TaskGroup::spawn(std::function<void()> Fn) {
  Outstanding.fetch_add(1, std::memory_order_relaxed);
  Pool.push(Task{std::move(Fn), this});
}

void ThreadPool::TaskGroup::noteException(std::exception_ptr E) {
  {
    std::lock_guard<std::mutex> Lock(ExcM);
    if (!Exc)
      Exc = std::move(E);
  }
  Faulted.store(true, std::memory_order_release);
}

std::exception_ptr ThreadPool::TaskGroup::takeException() {
  std::lock_guard<std::mutex> Lock(ExcM);
  Faulted.store(false, std::memory_order_release);
  std::exception_ptr Out = std::move(Exc);
  Exc = nullptr;
  return Out;
}

void ThreadPool::TaskGroup::wait() {
  int Self = CurrentWorker.Pool == &Pool ? CurrentWorker.Index : -1;
  Task T;
  while (Outstanding.load(std::memory_order_acquire) > 0) {
    // Help with this group's pending tasks instead of blocking. Restricting
    // to the own group keeps the stack bounded and means a worker that
    // waits inside a task (nested parallel query) can never pick up an
    // unrelated long-running task.
    if (Pool.pop(T, Self, this)) {
      Pool.runTask(T);
      continue;
    }
    // Nothing queued for this group: its remaining tasks are running on
    // other threads. Sleep briefly; finish() notifies on completion.
    std::unique_lock<std::mutex> Lock(DoneM);
    if (Outstanding.load(std::memory_order_acquire) == 0)
      return;
    DoneCv.wait_for(Lock, std::chrono::milliseconds(1));
  }
  // The loop may observe Outstanding == 0 without holding DoneM. The final
  // finish() decrements under DoneM and notifies before unlocking, so one
  // lock acquisition here blocks until that thread is fully done with the
  // group — only then may the caller destroy it.
  std::lock_guard<std::mutex> Lock(DoneM);
}
