//! The one worker pool every grid runner shares.
//!
//! Three forms over the same lanes:
//!
//! * [`par_map`] — a flat map: workers claim items from a shared
//!   cursor (an idle worker takes the next unclaimed item, so uneven
//!   items stay balanced without up-front partitioning) and results
//!   come back in input order.
//! * [`run_nested`] — a task queue in which a running task may enqueue
//!   more tasks at the back (parallel-in-time: a sampled point expands
//!   into its measured periods). The pool drains until no task is
//!   queued or running.
//! * [`synth_jobs`] — a batch of indexed jobs (a windowed trace fill's
//!   phase) run by the calling thread plus helper threads. It may be
//!   called from inside a worker lane and never renames its caller.
//!
//! With one worker every form runs inline on the calling thread, so a
//! one-thread caller never pays for a thread spawn; `par_map` and
//! `run_nested` then name the caller's lane `main`. Otherwise each
//! spawned worker runs on its own scoped thread, on a trace lane named
//! `worker-N` (`synth_jobs` helpers: `synth-N`), and drains its trace
//! buffer as its last act (a scoped join may land before TLS
//! destructors run). A panicking task propagates out of the pool with
//! its original payload.
//!
//! Scheduling varies with the worker count; results must not. Callers
//! keep that promise by making every task a pure function of its
//! inputs, which is what every grid runner here does.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use fc_obs::trace;

/// Runs `lane` on `workers` lanes and returns each lane's output:
/// inline on the caller (lane `main`) for one worker, else on scoped
/// threads `worker-0..N`.
fn lanes<L: Send>(workers: usize, lane: impl Fn() -> L + Sync) -> Vec<L> {
    if workers <= 1 {
        trace::set_lane_name("main");
        return vec![lane()];
    }
    spawn_lanes("worker", workers, false, lane)
}

/// Runs `lane` on `spawned` scoped threads with trace lanes
/// `{prefix}-0..`, each flushing its trace buffer as its last act, and
/// — when `on_caller` — once more on the calling thread, whose lane
/// keeps its name. Returns every run's output, the caller's first.
/// The only place the crate spawns threads.
fn spawn_lanes<L: Send>(
    prefix: &str,
    spawned: usize,
    on_caller: bool,
    lane: impl Fn() -> L + Sync,
) -> Vec<L> {
    std::thread::scope(|scope| {
        let lane = &lane;
        let handles: Vec<_> = (0..spawned)
            .map(|index| {
                scope.spawn(move || {
                    trace::set_lane_name(&format!("{prefix}-{index}"));
                    let out = lane();
                    trace::flush_thread();
                    out
                })
            })
            .collect();
        let mine = on_caller.then(lane);
        mine.into_iter()
            .chain(handles.into_iter().map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            }))
            .collect()
    })
}

/// Calls `job(i)` once for every `i` in `0..jobs` on the calling thread
/// plus up to `workers - 1` helper threads (lanes `synth-N`), which
/// claim jobs from a shared cursor. Returns once every job returned.
pub(crate) fn synth_jobs(workers: usize, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
    let cursor = AtomicUsize::new(0);
    let lane = || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= jobs {
            break;
        }
        job(index);
    };
    let helpers = workers.min(jobs).saturating_sub(1);
    if helpers == 0 {
        lane();
    } else {
        spawn_lanes("synth", helpers, true, lane);
    }
}

/// Maps `f` over `items` on up to `workers` lanes (clamped to the item
/// count), returning the results in input order.
pub(crate) fn par_map<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let claimed = lanes(workers.min(items.len()), || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                break done;
            };
            done.push((index, f(item)));
        }
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (index, result) in claimed.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

/// The queue of a [`run_nested`] pool, handed to every running task so
/// it can enqueue follow-up tasks.
pub(crate) struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    tasks: VecDeque<T>,
    /// Tasks queued or running: the pool is drained when this is zero.
    outstanding: usize,
    /// A task panicked: idle workers stop waiting for more work.
    aborted: bool,
}

impl<T> TaskQueue<T> {
    /// Enqueues `tasks` at the back of the queue.
    pub(crate) fn extend(&self, tasks: impl IntoIterator<Item = T>) {
        let mut state = self.state.lock().expect("task queue");
        let before = state.tasks.len();
        state.tasks.extend(tasks);
        state.outstanding += state.tasks.len() - before;
        self.ready.notify_all();
    }

    /// The next task, waiting while other workers still run tasks that
    /// may enqueue more; `None` once the pool is drained.
    fn next(&self) -> Option<T> {
        let mut state = self.state.lock().expect("task queue");
        loop {
            if state.aborted {
                return None;
            }
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.outstanding == 0 {
                return None;
            }
            state = self.ready.wait(state).expect("task queue");
        }
    }
}

/// Retires one claimed task when dropped — also while unwinding, so a
/// panicking task wakes the idle workers instead of stranding them.
struct Retire<'a, T>(&'a TaskQueue<T>);

impl<T> Drop for Retire<'_, T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().expect("task queue");
        state.outstanding -= 1;
        state.aborted |= std::thread::panicking();
        if state.outstanding == 0 || state.aborted {
            self.0.ready.notify_all();
        }
    }
}

/// Runs `initial` and every task they enqueue on `workers` lanes,
/// front of the queue first. `run` receives the queue so a task can
/// append follow-up tasks; each task runs exactly once.
pub(crate) fn run_nested<T: Send>(
    workers: usize,
    initial: impl IntoIterator<Item = T>,
    run: impl Fn(T, &TaskQueue<T>) + Sync,
) {
    let tasks: VecDeque<T> = initial.into_iter().collect();
    if tasks.is_empty() {
        return;
    }
    let queue = TaskQueue {
        state: Mutex::new(QueueState {
            outstanding: tasks.len(),
            tasks,
            aborted: false,
        }),
        ready: Condvar::new(),
    };
    lanes(workers, || {
        while let Some(task) = queue.next() {
            let _retire = Retire(&queue);
            run(task, &queue);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn results_keep_input_order_under_uneven_costs() {
        let items: Vec<u64> = (0..24).collect();
        for workers in [1, 2, 3, 8] {
            let out = par_map(workers, &items, |&i| {
                // Early items are the slow ones, so later items finish
                // first on any multi-worker run.
                std::thread::sleep(Duration::from_millis((24 - i) / 4));
                i * i
            });
            let want: Vec<u64> = items.iter().map(|i| i * i).collect();
            assert_eq!(out, want, "{workers} workers");
        }
    }

    #[test]
    fn empty_input_and_surplus_workers() {
        let none: Vec<u32> = par_map(4, &[] as &[u32], |&x| x);
        assert!(none.is_empty());
        assert_eq!(par_map(16, &[1u32, 2, 3], |&x| x + 1), vec![2, 3, 4]);
        run_nested(4, Vec::<u32>::new(), |_, _| unreachable!("no task to run"));
        let ran = AtomicU32::new(0);
        run_nested(8, [1u32], |x, _| {
            ran.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 1);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_map(1, &[0u8; 5], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let nested = Mutex::new(Vec::new());
        run_nested(1, [3u32], |n, queue| {
            nested.lock().unwrap().push(std::thread::current().id());
            if n > 0 {
                queue.extend([n - 1]);
            }
        });
        let nested = nested.into_inner().unwrap();
        assert_eq!(nested.len(), 4);
        assert!(nested.iter().all(|&id| id == caller));
    }

    #[test]
    fn synth_jobs_run_each_job_once() {
        let caller = std::thread::current().id();
        for (workers, jobs) in [(1, 5), (2, 17), (3, 4), (8, 3), (4, 0)] {
            let runs: Vec<AtomicU32> = (0..jobs).map(|_| AtomicU32::new(0)).collect();
            let threads = Mutex::new(Vec::new());
            synth_jobs(workers, jobs, &|i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().push(std::thread::current().id());
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            let threads = threads.into_inner().unwrap();
            if workers == 1 {
                assert!(threads.iter().all(|&id| id == caller));
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 2 failed")]
    fn job_panic_propagates() {
        synth_jobs(3, 6, &|i| assert!(i != 2, "job {i} failed"));
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn flat_task_panic_propagates() {
        par_map(3, &(0..10).collect::<Vec<u32>>(), |&i| {
            assert!(i != 5, "task {i} failed");
            i
        });
    }

    #[test]
    #[should_panic(expected = "nested task failed")]
    fn nested_task_panic_propagates() {
        run_nested(3, 0..4u32, |i, queue| {
            if i < 4 {
                queue.extend([i + 10]);
            }
            assert!(i != 12, "nested task failed");
        });
    }

    #[test]
    fn nested_tasks_each_run_exactly_once() {
        // Every task below 64 enqueues two children (a binary tree of
        // 127 tasks, ids 1..=127), spread over a few roots.
        for workers in [1, 2, 5] {
            let runs: Vec<AtomicU32> = (0..128).map(|_| AtomicU32::new(0)).collect();
            run_nested(workers, [1usize], |id, queue| {
                runs[id].fetch_add(1, Ordering::Relaxed);
                if id < 64 {
                    queue.extend([2 * id, 2 * id + 1]);
                }
            });
            assert_eq!(runs[0].load(Ordering::Relaxed), 0);
            for (id, count) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "task {id}, {workers} workers"
                );
            }
        }
    }
}
