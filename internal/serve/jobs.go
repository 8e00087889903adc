package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Job lifecycle. Every query the API admits becomes a Job: it waits in a
// bounded queue, a pool worker runs it against the exploration engines,
// and its progress events and final result are readable (and streamable)
// for the rest of the server's life. The queue is the server's
// back-pressure boundary — a full queue or a draining server refuses new
// work with 503 rather than buffering unboundedly — and the drain state
// machine lives here: see Drain.

// JobKind names the query a job runs.
type JobKind string

// The job kinds, one per POST endpoint.
const (
	KindCensus    JobKind = "census"
	KindValency   JobKind = "valency"
	KindAdversary JobKind = "adversary"
)

// JobState is a job's lifecycle position. Transitions: queued → running →
// (done | failed), or queued/running → canceled during a drain.
type JobState string

// The job states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress message, sequenced per job.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// errCanceled is returned by a job body that observed the drain flag
// between work chunks; the worker maps it to StateCanceled.
var errCanceled = errors.New("serve: job canceled by server drain")

// jobFunc is a job's body. pub emits a progress event; canceled reports
// whether the server is draining, letting chunked jobs stop early (a body
// that observes it should return errCanceled).
type jobFunc func(pub func(string), canceled func() bool) (any, error)

// Job is one admitted query.
type Job struct {
	ID   string  `json:"id"`
	Kind JobKind `json:"kind"`

	mu       sync.Mutex
	state    JobState
	result   any
	errMsg   string
	events   []Event
	notify   chan struct{} // closed and replaced on every mutation
	created  time.Time
	started  time.Time
	finished time.Time

	done      chan struct{} // closed once the state is terminal
	finishing bool          // under mu: claimed by the finish call that settles the state
	run       jobFunc
	jnl       *journal // nil without -atlas-dir: in-memory lifecycle only
}

// JobView is the JSON rendering of a job's current status.
type JobView struct {
	ID       string   `json:"id"`
	Kind     JobKind  `json:"kind"`
	State    JobState `json:"state"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
	Error    string   `json:"error,omitempty"`
	Result   any      `json:"result,omitempty"`
}

// View snapshots the job for a status response.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, Kind: j.Kind, State: j.state,
		Created: j.created.Format(time.RFC3339Nano),
		Error:   j.errMsg, Result: j.result,
	}
	if !j.started.IsZero() {
		v.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.Format(time.RFC3339Nano)
	}
	return v
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// EventsSince returns the events from sequence from onward, a channel that
// closes on the next mutation, and whether the job is already terminal —
// everything a streaming handler needs for replay-then-follow.
func (j *Job) EventsSince(from int) (evs []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.notify, j.state.terminal()
}

// publish appends a progress event (and journals it, durability permitting).
func (j *Job) publish(msg string) {
	j.mu.Lock()
	ev := Event{Seq: len(j.events), Time: time.Now(), Msg: msg}
	j.events = append(j.events, ev)
	j.wake()
	j.mu.Unlock()
	if j.jnl != nil {
		j.jnl.append(journalRecord{Rec: recEvent, ID: j.ID, Seq: ev.Seq, Msg: ev.Msg}, false)
	}
}

// wake flips the notify channel; callers hold j.mu.
func (j *Job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// finish moves the job to a terminal state exactly once: the first call
// claims it, and any later or concurrent one returns at once. The terminal
// journal record is the second durability point after admission, so it is
// appended and fsynced before the state is published: once a waiter or a
// GET can read a result, it stays readable across restarts.
func (j *Job) finish(state JobState, result any, err error) {
	j.mu.Lock()
	if j.finishing || j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	j.mu.Unlock()
	var errMsg string
	if err != nil {
		errMsg = err.Error()
	}
	finished := time.Now()
	if j.jnl != nil {
		rec := journalRecord{Rec: recTerminal, ID: j.ID, State: state, Error: errMsg, Time: finished}
		if result != nil {
			if raw, err := json.Marshal(result); err == nil {
				rec.Result = raw
			}
		}
		j.jnl.append(rec, true)
	}
	j.mu.Lock()
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = finished
	j.events = append(j.events, Event{Seq: len(j.events), Time: finished, Msg: "job " + string(state)})
	j.wake()
	close(j.done)
	j.mu.Unlock()
}

// Submission failures, mapped to 503 by the API layer.
var (
	// ErrDraining means the server is shutting down and admits no new work.
	ErrDraining = errors.New("serve: draining, not accepting new jobs")
	// ErrQueueFull means the job queue is at capacity.
	ErrQueueFull = errors.New("serve: job queue full")
)

// jobQueue is the bounded queue plus worker pool. One lives in each
// Server.
type jobQueue struct {
	queue    chan *Job
	quit     chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
	seq      atomic.Int64

	mu   sync.Mutex
	jobs map[string]*Job

	m   *metrics
	jnl *journal // nil without -atlas-dir

	// reserved is the highest ID number this lifetime's reserve records
	// cover; reserveMu serializes writing them.
	reserveMu sync.Mutex
	reserved  atomic.Int64
}

// idReserve is how many job IDs one reserve record covers: one fsync per
// that many answers from memory.
const idReserve = 1024

// newJobQueue starts workers goroutines servicing a queue of the given
// depth.
func newJobQueue(workers, depth int, m *metrics, jnl *journal) *jobQueue {
	q := &jobQueue{
		queue: make(chan *Job, depth),
		quit:  make(chan struct{}),
		jobs:  make(map[string]*Job),
		m:     m,
		jnl:   jnl,
	}
	if jnl != nil {
		q.seq.Store(jnl.reserved)
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit admits a job, or refuses with ErrDraining/ErrQueueFull. req is the
// decoded request the job was built from; with a journal it is persisted in
// the admission record so a restarted server can rebuild the job body. The
// admission record is written only after the queue accepts the job — a 202
// response therefore implies the job is durable.
func (q *jobQueue) Submit(kind JobKind, req any, run jobFunc) (*Job, error) {
	if q.draining.Load() {
		return nil, ErrDraining
	}
	j := &Job{
		ID:      fmt.Sprintf("%s-%d", kind, q.seq.Add(1)),
		Kind:    kind,
		state:   StateQueued,
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
		created: time.Now(),
		run:     run,
		jnl:     q.jnl,
	}
	q.mu.Lock()
	q.jobs[j.ID] = j
	q.mu.Unlock()
	// The admission record goes down before the enqueue: once a pool worker
	// can see the job, its started/event records may race ours into the
	// journal, and replay drops records that precede their accepted line. A
	// refusal after the record is already durable is settled with a terminal
	// record, so a restart never resurrects a job whose client got 503.
	if q.jnl != nil {
		rec := journalRecord{Rec: recAccepted, ID: j.ID, Kind: kind}
		if raw, err := json.Marshal(req); err == nil {
			rec.Req = raw
		}
		q.jnl.append(rec, true)
	}
	select {
	case q.queue <- j:
		q.m.queueDepth.Inc()
		return j, nil
	default:
		q.mu.Lock()
		delete(q.jobs, j.ID)
		q.mu.Unlock()
		if q.jnl != nil {
			q.jnl.append(journalRecord{Rec: recTerminal, ID: j.ID, State: StateCanceled,
				Error: ErrQueueFull.Error()}, true)
		}
		return nil, ErrQueueFull
	}
}

// answered registers a job that is done on arrival — a query answered from
// memory at admission — under the usual ID. It takes no queue slot and no
// pool worker. Its whole lifecycle is one terminal record that carries the
// kind and the progress event, and the job is built from that record
// through the same fold replay uses, so a restart answers for it exactly
// as this lifetime does. The record is not fsynced: a crash can lose it,
// and the ID then answers 404, while the answer itself is one cache lookup
// away. Callers check the drain flag first.
func (q *jobQueue) answered(kind JobKind, progress string, result json.RawMessage) *Job {
	n := q.seq.Add(1)
	rec := journalRecord{Rec: recTerminal, ID: fmt.Sprintf("%s-%d", kind, n), Kind: kind,
		Msg: progress, State: StateDone, Result: result, Time: time.Now()}
	if q.jnl != nil {
		q.reserve(n)
		q.jnl.append(rec, false)
	}
	j := q.addTerminal(replayedFrom(rec))
	q.m.jobsTotal.With(string(kind), string(StateDone)).Inc()
	q.m.jobDuration.With(string(kind)).Observe(0)
	return j
}

// reserve makes sure a durable reserve record covers ID number n before an
// unsynced record carries it, so that a restart, which numbers past every
// reserve record, never issues an ID again whose record a crash lost.
func (q *jobQueue) reserve(n int64) {
	if n <= q.reserved.Load() {
		return
	}
	q.reserveMu.Lock()
	defer q.reserveMu.Unlock()
	if n <= q.reserved.Load() {
		return
	}
	upTo := n + idReserve
	q.jnl.append(journalRecord{Rec: recReserve, Seq: int(upTo)}, true)
	q.reserved.Store(upTo)
}

// readmit re-enqueues one non-terminal job replayed from the journal under
// its original ID, pre-crash events intact (the NDJSON stream replays them,
// then follows the re-run). No new admission record is written — the one
// that admitted the job the first time still stands. Returns false when the
// queue cannot hold the backlog (the job is failed, visibly, rather than
// silently dropped).
func (q *jobQueue) readmit(rj *replayedJob, run jobFunc) bool {
	j := &Job{
		ID:      rj.id,
		Kind:    rj.kind,
		state:   StateQueued,
		events:  rj.events,
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
		created: rj.created,
		run:     run,
		jnl:     q.jnl,
	}
	q.bumpSeq(rj.id)
	q.mu.Lock()
	q.jobs[j.ID] = j
	q.mu.Unlock()
	// The marker goes out before the job can reach a pool worker, so the
	// re-run's events follow it.
	j.publish("job re-admitted after server restart")
	select {
	case q.queue <- j:
		q.m.queueDepth.Inc()
		return true
	default:
		q.settle(j, StateFailed, nil, fmt.Errorf("serve: queue full during journal recovery"))
		return false
	}
}

// addTerminal registers one finished job from its journal form — replayed
// at restart, or answered at admission: its status, result, and event
// history answer exactly as the journal records them, and nothing runs.
func (q *jobQueue) addTerminal(rj *replayedJob) *Job {
	j := &Job{
		ID:       rj.id,
		Kind:     rj.kind,
		state:    rj.state,
		errMsg:   rj.errMsg,
		events:   rj.events,
		notify:   make(chan struct{}),
		done:     make(chan struct{}),
		created:  rj.created,
		started:  rj.started,
		finished: rj.finished,
		jnl:      q.jnl,
	}
	if len(rj.result) > 0 {
		j.result = json.RawMessage(rj.result)
	}
	close(j.done)
	q.bumpSeq(rj.id)
	q.mu.Lock()
	q.jobs[j.ID] = j
	q.mu.Unlock()
	return j
}

// bumpSeq advances the ID counter past a replayed job's numeric suffix so
// new submissions never collide with journaled IDs.
func (q *jobQueue) bumpSeq(id string) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return
	}
	for {
		cur := q.seq.Load()
		if cur >= n || q.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Get looks a job up by ID.
func (q *jobQueue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// worker services the queue until quit closes.
func (q *jobQueue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.quit:
			return
		case j := <-q.queue:
			q.m.queueDepth.Dec()
			if q.draining.Load() {
				// Admitted before the drain began, dequeued after: the
				// drain promise is "queued jobs report canceled".
				q.settle(j, StateCanceled, nil, errCanceled)
				continue
			}
			q.runJob(j)
		}
	}
}

// runJob executes one job body and settles its terminal state.
func (q *jobQueue) runJob(j *Job) {
	started := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = started
	j.wake()
	j.mu.Unlock()
	if q.jnl != nil {
		q.jnl.append(journalRecord{Rec: recStarted, ID: j.ID}, false)
	}
	q.m.inflight.Inc()

	result, err := j.run(j.publish, q.draining.Load)
	state := StateDone
	switch {
	case errors.Is(err, errCanceled):
		state = StateCanceled
	case err != nil:
		state = StateFailed
	}
	q.m.inflight.Dec()
	q.m.jobDuration.With(string(j.Kind)).Observe(time.Since(started).Seconds())
	q.settle(j, state, result, err)
}

// settle counts j's terminal state in flpserve_jobs_total and then
// finishes j. The order is the contract: finish wakes ?wait=1 waiters, and
// a client that scrapes /metrics right after its answer must find its own
// job counted (with its duration and inflight already settled by runJob).
func (q *jobQueue) settle(j *Job, state JobState, result any, err error) {
	q.m.jobsTotal.With(string(j.Kind), string(state)).Inc()
	j.finish(state, result, err)
}

// Drain is the shutdown state machine: (1) stop admitting — Submit
// refuses with ErrDraining from this instant; (2) cancel everything still
// queued; (3) stop the workers once their in-flight jobs finish (chunked
// bodies observe the drain flag and cut out early as canceled); (4) sweep
// any job that slipped into the queue between steps 2 and 3. On return
// every admitted job is terminal and the metrics endpoint still serves.
// Idempotent; safe to call from a signal handler goroutine.
func (q *jobQueue) Drain() {
	if q.draining.Swap(true) {
		return // already draining; first caller does the work
	}
	q.cancelQueued()
	close(q.quit)
	q.wg.Wait()
	q.cancelQueued()
}

// cancelQueued empties the queue, marking each job canceled.
func (q *jobQueue) cancelQueued() {
	for {
		select {
		case j := <-q.queue:
			q.m.queueDepth.Dec()
			q.settle(j, StateCanceled, nil, errCanceled)
		default:
			return
		}
	}
}

// Draining reports whether a drain has begun.
func (q *jobQueue) Draining() bool { return q.draining.Load() }
