//! The worker set a [`MatrixRun`](crate::MatrixRun) owns: the calling
//! thread plus `parallelism − 1` helper threads.  Each thread builds its
//! own context, on that thread, and keeps it for as long as the set
//! lives.  All threads draw tasks from one queue with two tiers:
//!
//! * **Current** tasks belong to the wave the caller collects next.  The
//!   caller evaluates them too, on its own context, and sleeps only once
//!   no current task is left unclaimed.  It is woken once, when the wave's
//!   last result (or a panic) arrives, never once per result.
//! * **Ahead** tasks are work for a later wave.  Helpers take them only
//!   when no current task is queued, so they fill the time the caller
//!   spends merging and between waves.  A [`Workers::collect`] that names
//!   an ahead task makes it current; [`Workers::cancel`] withdraws tasks
//!   that turned out not to be needed, and their results are never
//!   returned.
//!
//! Results come back in the order the caller names their tickets, whatever
//! order they finish in.  A task that panics poisons the set: its payload
//! re-raises on the caller, and every later `collect` panics.  Dropping
//! the set closes the queue and joins the helpers; each finishes at most
//! the task it is evaluating.  Helpers are spawned on the first submit, so
//! a set that never evaluates anything spawns no thread, and a set of
//! parallelism 1 never spawns one.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What a worker set evaluates.
pub(crate) trait Job: Send + Sync + 'static {
    /// One unit of work.
    type Task: Send + 'static;
    /// What evaluating a task yields.
    type Output: Send + 'static;
    /// The state a thread keeps from task to task.
    type Context;

    /// A fresh context; every thread builds its own, on that thread.
    fn context(&self) -> Self::Context;

    /// Evaluate `task` on `context`.
    fn run(&self, context: &mut Self::Context, task: Self::Task) -> Self::Output;
}

/// The queue tier of submitted tasks (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Work of the wave the caller collects next.
    Current,
    /// Work for a later wave, taken only when no current task is queued.
    Ahead,
}

/// Names a submitted task: tickets count up by one per task, in
/// submission order, so the tasks of one submit form a range.
pub(crate) type Ticket = usize;

const LOCK: &str = "no thread panics while holding the worker queue";

/// The calling thread plus `parallelism − 1` helper threads (see the
/// module docs).
pub(crate) struct Workers<J: Job> {
    job: Arc<J>,
    shared: Arc<Shared<J>>,
    /// Helper threads to run beside the caller.
    helper_count: usize,
    /// The helpers, once spawned.
    helpers: Vec<JoinHandle<()>>,
    /// The calling thread's context, built on its first task.
    context: Option<J::Context>,
    next_ticket: Ticket,
}

struct Shared<J: Job> {
    queue: Mutex<Queue<J>>,
    /// Signalled when tasks are queued or the set closes.
    queued: Condvar,
    /// Signalled when the wave being collected is complete or a task
    /// panicked.
    complete: Condvar,
}

struct Queue<J: Job> {
    current: VecDeque<(Ticket, J::Task)>,
    ahead: VecDeque<(Ticket, J::Task)>,
    /// Tasks a thread is evaluating.  A cancelled task leaves this set, so
    /// its result is dropped when it arrives.
    running: BTreeSet<Ticket>,
    /// Results not yet collected.
    results: BTreeMap<Ticket, J::Output>,
    /// The tickets of the wave being collected (empty between waves) and
    /// how many of their results are still missing.
    wave: Vec<Range<Ticket>>,
    missing: usize,
    /// The first panic's payload, until the caller re-raises it.
    panic: Option<Box<dyn Any + Send>>,
    poisoned: bool,
    closed: bool,
}

impl<J: Job> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, Queue<J>> {
        self.queue.lock().expect(LOCK)
    }

    /// A helper's next task: current first, then ahead.  `None` once the
    /// set is closed or poisoned.
    fn next_task(&self) -> Option<(Ticket, J::Task)> {
        let mut queue = self.lock();
        loop {
            if queue.closed || queue.poisoned {
                return None;
            }
            let next = queue.current.pop_front().or_else(|| queue.ahead.pop_front());
            if let Some((ticket, task)) = next {
                queue.running.insert(ticket);
                return Some((ticket, task));
            }
            queue = self.queued.wait(queue).expect(LOCK);
        }
    }
}

impl<J: Job> Queue<J> {
    /// Record a finished task's result, unless the task was cancelled
    /// while it ran.  Returns whether it completed the wave being
    /// collected.
    fn post(&mut self, ticket: Ticket, output: J::Output) -> bool {
        if !self.running.remove(&ticket) {
            return false;
        }
        self.results.insert(ticket, output);
        if self.wave.iter().any(|r| r.contains(&ticket)) {
            self.missing -= 1;
            return self.missing == 0;
        }
        false
    }

    fn poison(&mut self, payload: Box<dyn Any + Send>) {
        self.panic.get_or_insert(payload);
        self.poisoned = true;
    }
}

/// A helper's life: build a context, then evaluate tasks until the set
/// closes.  A panic poisons the set and ends the helper.
fn help<J: Job>(job: &J, shared: &Shared<J>) {
    let work = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut context = job.context();
        while let Some((ticket, task)) = shared.next_task() {
            let output = job.run(&mut context, task);
            let completed = shared.lock().post(ticket, output);
            if completed {
                shared.complete.notify_one();
            }
        }
    }));
    if let Err(payload) = work {
        shared.lock().poison(payload);
        shared.complete.notify_one();
    }
}

impl<J: Job> Workers<J> {
    /// A set of `parallelism` threads in all (`0` counts as 1): the caller
    /// and `parallelism − 1` helpers, which the first submit spawns.
    pub(crate) fn new(job: J, parallelism: usize) -> Workers<J> {
        let queue = Queue {
            current: VecDeque::new(),
            ahead: VecDeque::new(),
            running: BTreeSet::new(),
            results: BTreeMap::new(),
            wave: Vec::new(),
            missing: 0,
            panic: None,
            poisoned: false,
            closed: false,
        };
        Workers {
            job: Arc::new(job),
            shared: Arc::new(Shared {
                queue: Mutex::new(queue),
                queued: Condvar::new(),
                complete: Condvar::new(),
            }),
            helper_count: parallelism.saturating_sub(1),
            helpers: Vec::new(),
            context: None,
            next_ticket: 0,
        }
    }

    /// Helper threads the set runs beside the caller.
    pub(crate) fn helpers(&self) -> usize {
        self.helper_count
    }

    /// Queue `tasks` in `tier`; returns their tickets.
    pub(crate) fn submit(
        &mut self,
        tier: Tier,
        tasks: impl IntoIterator<Item = J::Task>,
    ) -> Range<Ticket> {
        if self.helpers.len() < self.helper_count {
            self.spawn_helpers();
        }
        let first = self.next_ticket;
        let mut queue = self.shared.lock();
        for task in tasks {
            let entry = (self.next_ticket, task);
            match tier {
                Tier::Current => queue.current.push_back(entry),
                Tier::Ahead => queue.ahead.push_back(entry),
            }
            self.next_ticket += 1;
        }
        drop(queue);
        self.shared.queued.notify_all();
        first..self.next_ticket
    }

    fn spawn_helpers(&mut self) {
        self.helpers = (0..self.helper_count)
            .map(|i| {
                let (job, shared) = (Arc::clone(&self.job), Arc::clone(&self.shared));
                std::thread::Builder::new()
                    .name(format!("revizor-worker-{i}"))
                    .spawn(move || help(&*job, &shared))
                    .expect("failed to spawn a matrix worker thread")
            })
            .collect();
    }

    /// Withdraw the ahead tasks of `tickets`, which no wave collected:
    /// queued ones are dropped, finished ones' results discarded, and
    /// running ones' results dropped when they arrive.
    pub(crate) fn cancel(&mut self, tickets: Range<Ticket>) {
        let mut queue = self.shared.lock();
        queue.ahead.retain(|(t, _)| !tickets.contains(t));
        queue.running.retain(|t| !tickets.contains(t));
        queue.results.retain(|t, _| !tickets.contains(t));
    }

    /// The results of the tasks of `wave`, in the order its ranges name
    /// them; each ticket must name a submitted task that no earlier call
    /// collected and no `cancel` withdrew.  The wave's ahead tasks become
    /// current, and the calling thread evaluates current tasks until none
    /// is queued, then waits for the rest.
    ///
    /// # Panics
    /// Re-raises the payload of a task that panicked, on any thread; once
    /// a task has panicked, every later call panics.
    pub(crate) fn collect(&mut self, wave: &[Range<Ticket>]) -> Vec<J::Output> {
        let in_wave = |ticket: &Ticket| wave.iter().any(|r| r.contains(ticket));
        let mut queue = self.shared.lock();
        let ahead = std::mem::take(&mut queue.ahead);
        for entry in ahead {
            if in_wave(&entry.0) {
                queue.current.push_back(entry);
            } else {
                queue.ahead.push_back(entry);
            }
        }
        let tickets = wave.iter().flat_map(Clone::clone);
        queue.missing = tickets.filter(|t| !queue.results.contains_key(t)).count();
        queue.wave = wave.to_vec();
        loop {
            if queue.poisoned {
                let payload = queue.panic.take();
                drop(queue);
                match payload {
                    Some(payload) => panic::resume_unwind(payload),
                    None => panic!("a matrix work unit panicked in an earlier wave"),
                }
            }
            if let Some((ticket, task)) = queue.current.pop_front() {
                queue.running.insert(ticket);
                drop(queue);
                let (job, context) = (&self.job, &mut self.context);
                let output = panic::catch_unwind(AssertUnwindSafe(|| {
                    job.run(context.get_or_insert_with(|| job.context()), task)
                }));
                queue = self.shared.lock();
                match output {
                    Ok(output) => {
                        queue.post(ticket, output);
                    }
                    Err(payload) => queue.poison(payload),
                }
                continue;
            }
            if queue.missing == 0 {
                break;
            }
            queue = self.shared.complete.wait(queue).expect(LOCK);
        }
        queue.wave.clear();
        wave.iter()
            .flat_map(Clone::clone)
            .map(|t| queue.results.remove(&t).expect("a complete wave has every result"))
            .collect()
    }
}

impl<J: Job> Drop for Workers<J> {
    /// Close the queue and join the helpers.
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.closed = true;
            queue.current.clear();
            queue.ahead.clear();
        }
        self.shared.queued.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch their own panics, so the join cannot fail.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// A synthetic job: a task is a closure, its output the closure's
    /// value and the evaluating thread.  Contexts count their drops.
    struct Closures {
        dropped: Arc<AtomicUsize>,
    }

    struct Context(Arc<AtomicUsize>);

    impl Drop for Context {
        fn drop(&mut self) {
            // Widens the window in which a drop that does not join its
            // helpers would miss this count.
            thread::sleep(Duration::from_millis(20));
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    type Task = Box<dyn FnOnce() -> usize + Send>;

    impl Job for Closures {
        type Task = Task;
        type Output = (usize, ThreadId);
        type Context = Context;
        fn context(&self) -> Context {
            Context(Arc::clone(&self.dropped))
        }
        fn run(&self, _: &mut Context, task: Task) -> (usize, ThreadId) {
            (task(), thread::current().id())
        }
    }

    fn workers(parallelism: usize) -> (Workers<Closures>, Arc<AtomicUsize>) {
        let dropped = Arc::new(AtomicUsize::new(0));
        (Workers::new(Closures { dropped: Arc::clone(&dropped) }, parallelism), dropped)
    }

    fn value(i: usize) -> Task {
        Box::new(move || i)
    }

    fn values(results: Vec<(usize, ThreadId)>) -> Vec<usize> {
        results.into_iter().map(|(v, _)| v).collect()
    }

    /// A gate tasks block on until the test opens it.
    fn gate() -> (Arc<(Mutex<bool>, Condvar)>, impl Fn() + Clone + Send + 'static) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let wait = {
            let gate = Arc::clone(&gate);
            move || {
                let (open, cv) = &*gate;
                let _open = cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap();
            }
        };
        (gate, wait)
    }

    fn open(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    #[test]
    fn results_come_back_in_wave_order_whatever_order_they_finish_in() {
        // Four threads, four tasks: task i finishes only after task i + 1,
        // so they finish in reverse; the two rounds are also collected in
        // the reverse of their submission order.
        let (mut set, _) = workers(4);
        let finished = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let task = |i: usize| -> Task {
            let finished = Arc::clone(&finished);
            Box::new(move || {
                let (log, cv) = &*finished;
                let mut log = cv
                    .wait_while(log.lock().unwrap(), |log: &mut Vec<usize>| {
                        i < 3 && !log.contains(&(i + 1))
                    })
                    .unwrap();
                log.push(i);
                cv.notify_all();
                i
            })
        };
        let first = set.submit(Tier::Current, [task(0), task(1)]);
        let second = set.submit(Tier::Current, [task(2), task(3)]);
        let results = set.collect(&[second, first]);
        assert_eq!(*finished.0.lock().unwrap(), vec![3, 2, 1, 0]);
        assert_eq!(values(results), vec![2, 3, 0, 1]);
    }

    #[test]
    fn a_helper_panic_re_raises_on_the_caller_and_drop_joins_every_helper() {
        let (mut set, dropped) = workers(4);
        let (started, on_helper) = mpsc::channel();
        let boom: Task = Box::new(move || {
            started.send(()).unwrap();
            panic!("boom")
        });
        // Only a helper takes an ahead task outside `collect`.
        let tickets = set.submit(Tier::Ahead, [boom]);
        on_helper.recv().unwrap();
        let raised = panic::catch_unwind(AssertUnwindSafe(|| set.collect(&[tickets])));
        let payload = raised.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // Poisoned: a later wave panics instead of waiting forever.
        let later = set.submit(Tier::Current, [value(1)]);
        assert!(panic::catch_unwind(AssertUnwindSafe(|| set.collect(&[later]))).is_err());
        drop(set);
        // All three helper contexts were dropped before `drop` returned,
        // the panicking helper's included (the caller never built one).
        assert_eq!(dropped.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn parallelism_one_spawns_no_thread() {
        let (mut set, dropped) = workers(1);
        let ahead = set.submit(Tier::Ahead, (0..5).map(value));
        let current = set.submit(Tier::Current, (5..10).map(value));
        assert!(set.helpers.is_empty());
        let results = set.collect(&[ahead, current]);
        assert!(results.iter().all(|&(_, id)| id == thread::current().id()));
        assert_eq!(values(results), (0..10).collect::<Vec<_>>());
        assert!(set.helpers.is_empty());
        drop(set);
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "only the caller's context");
    }

    #[test]
    fn a_stale_ahead_task_never_returns_its_result() {
        let (mut set, _) = workers(2);
        let (gate, wait) = gate();
        let (started, running) = mpsc::channel();
        // The helper starts the first ahead task and blocks in it; the
        // other four stay queued.
        let blocked: Task = Box::new(move || {
            started.send(()).unwrap();
            wait();
            100
        });
        let stale = set.submit(
            Tier::Ahead,
            std::iter::once(blocked).chain((101..105).map(value)),
        );
        running.recv().unwrap();
        set.cancel(stale);
        assert!(set.shared.lock().ahead.is_empty(), "the queued stale tasks must go");
        open(&gate);
        let fresh = set.submit(Tier::Current, (0..6).map(value));
        assert_eq!(values(set.collect(&[fresh])), (0..6).collect::<Vec<_>>());
        let shared = Arc::clone(&set.shared);
        drop(set);
        let queue = shared.lock();
        assert!(queue.results.is_empty(), "a cancelled task's result was kept");
        assert!(queue.running.is_empty());
    }

    #[test]
    fn dropping_the_set_while_helpers_run_ahead_does_not_hang() {
        let (mut set, dropped) = workers(4);
        let (gate, wait) = gate();
        let (started, running) = mpsc::channel();
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks = (0..100usize).map(|i| {
            let (wait, started, ran) = (wait.clone(), started.clone(), Arc::clone(&ran));
            Box::new(move || {
                started.send(()).unwrap();
                wait();
                ran.fetch_add(1, Ordering::SeqCst);
                i
            }) as Task
        });
        set.submit(Tier::Ahead, tasks);
        for _ in 0..3 {
            running.recv().unwrap(); // every helper is inside a task
        }
        let shared = Arc::clone(&set.shared);
        let dropper = thread::spawn(move || drop(set));
        // Once the queue is closed, let the three running tasks finish.
        drop(shared.queued.wait_while(shared.lock(), |queue| !queue.closed).unwrap());
        open(&gate);
        dropper.join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 3, "each helper finishes only its own task");
        assert_eq!(dropped.load(Ordering::SeqCst), 3);
    }
}
