package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/types"
	"repro/internal/wire"
)

// Span names: one per layer boundary the benchmark can see from outside.
// A root span is one client operation (a program or a memory hand-off);
// everything it causes carries the same op identifier.
const (
	spanOp             = "op"
	spanSubmit         = "program.submit"
	spanWait           = "program.wait"
	spanBody           = "exec.body"
	spanWork           = "exec.work"
	spanSend           = "memory.send"
	spanNewFrame       = "memory.newframe"
	spanRead           = "memory.read"
	spanWrite          = "memory.write"
	spanHop            = "sched.hop"
	spanSignOn         = "cluster.signon"
	spanSetup          = "cluster.setup"
	noSpan       int32 = -1
)

// span is one timed interval. Parent is an index into the recorder's span
// list (noSpan for roots); Op groups every span one client operation
// caused.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
}

// maxSpans bounds the in-memory span list (and so the span file, ≈95 B a
// span): past it the recorder drops new spans and counts them. fib(22)
// alone would cause ≈400 000 spans per program, so microthread bodies and
// memory hand-offs are sampled (workload.traceEvery) at a rate that keeps
// a run of the benchmark's length below the bound; the samples then cover
// the whole window evenly.
const maxSpans = 200_000

// recorder keeps spans in memory until the run ends (choosing-metrics §4).
// begin/end are safe for concurrent use: a span slot is claimed with one
// atomic add and then written only by its claimant.
type recorder struct {
	epoch   time.Time
	spans   []span // preallocated to maxSpans; [0, min(next, maxSpans)) are claimed
	next    atomic.Int64
	dropped atomic.Int64
	enabled atomic.Bool
	// every is the sampling stride of sample; tick counts its calls.
	every uint64
	tick  atomic.Uint64

	// sends remembers, per destination frame, when the latest ctx.Send to
	// it started; the frame's body start closes the sched.hop span.
	sends [64]*sendShard
}

type sendShard struct {
	mu sync.Mutex
	at map[types.FrameID]sendMark // guarded by mu
}

type sendMark struct {
	at int64
	op uint64
}

// newRecorder returns a recorder whose sample reports true once in every
// calls.
func newRecorder(every int) *recorder {
	if every < 1 {
		every = 1
	}
	r := &recorder{epoch: time.Now(), spans: make([]span, maxSpans), every: uint64(every)}
	for i := range r.sends {
		r.sends[i] = &sendShard{at: make(map[types.FrameID]sendMark)}
	}
	r.enabled.Store(true)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// sample reports whether the caller's microthread body or memory hand-off
// is one of those traced: never with a nil or paused recorder, else every
// r.every-th call.
func (r *recorder) sample() bool {
	return r != nil && r.enabled.Load() && r.tick.Add(1)%r.every == 0
}

// begin opens a span and returns its index, or noSpan when the recorder
// is nil, paused or full.
func (r *recorder) begin(name string, parent int32, op uint64) int32 {
	return r.beginAt(name, parent, op, 0)
}

// beginAt is begin with an explicit start time (0 = now).
func (r *recorder) beginAt(name string, parent int32, op uint64, start int64) int32 {
	if r == nil || !r.enabled.Load() {
		return noSpan
	}
	i := r.next.Add(1) - 1
	if i >= maxSpans {
		r.dropped.Add(1)
		return noSpan
	}
	if start == 0 {
		start = r.now()
	}
	r.spans[i] = span{Name: name, Start: start, Parent: parent, Op: op}
	return int32(i)
}

// pause and resume switch recording off and on (warm-up and reference
// windows are not traced); both accept a nil recorder.
func (r *recorder) pause() {
	if r != nil {
		r.enabled.Store(false)
	}
}

func (r *recorder) resume() {
	if r != nil {
		r.enabled.Store(true)
	}
}

// end closes a span opened by begin.
func (r *recorder) end(i int32) {
	if i != noSpan {
		r.spans[i].End = r.now()
	}
}

// taken returns the claimed spans. Call only after every begin/end has
// returned (the cluster is stopped or idle).
func (r *recorder) taken() []span {
	n := r.next.Load()
	if n > maxSpans {
		n = maxSpans
	}
	return r.spans[:n]
}

func (r *recorder) shard(id types.FrameID) *sendShard {
	return r.sends[(uint64(id.Local)^uint64(id.Home))%uint64(len(r.sends))]
}

// noteSend marks the start of a ctx.Send to frame id.
func (r *recorder) noteSend(id types.FrameID, at int64, op uint64) {
	s := r.shard(id)
	s.mu.Lock()
	s.at[id] = sendMark{at: at, op: op}
	s.mu.Unlock()
}

// takeSend removes and returns the latest send mark of frame id.
func (r *recorder) takeSend(id types.FrameID) (sendMark, bool) {
	s := r.shard(id)
	s.mu.Lock()
	m, ok := s.at[id]
	if ok {
		delete(s.at, id)
	}
	s.mu.Unlock()
	return m, ok
}

// selfTimes returns, per span index, the span's duration minus the part of
// it that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for _, sp := range spans {
		if sp.Parent != noSpan && sp.End > sp.Start {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start
		ivs := kids[int32(i)]
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		covered, until := int64(0), sp.Start
		for _, k := range ivs {
			s, e := k.s, k.e
			if s < until {
				s = until
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				covered += e - s
				until = e
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats groups closed spans by name: durations in microseconds, and
// for exec.body the self times.
type spanStats struct {
	durUS    map[string][]float64
	bodySelf []float64
}

func summarize(spans []span) spanStats {
	st := spanStats{durUS: make(map[string][]float64)}
	self := selfTimes(spans)
	for i, sp := range spans {
		if sp.End <= sp.Start {
			continue // never closed (program terminated under it)
		}
		st.durUS[sp.Name] = append(st.durUS[sp.Name], float64(sp.End-sp.Start)/1e3)
		if sp.Name == spanBody {
			st.bodySelf = append(st.bodySelf, float64(self[i])/1e3)
		}
	}
	return st
}

// writeSpans writes the span list as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int64  `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, dropped, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Microthread tracing: every workload function is registered a second time
// under a bench.traced. name that wraps the original with a timing
// Context, so the spans come from the benchmark's own files.

// tracedPrefix names the wrapped registrations.
const tracedPrefix = "bench.traced."

// activeRecorder is what the wrapped microthreads record into. Registered
// functions cannot take parameters, so this is the one package-level
// variable; nil means the wrappers pass straight through.
var activeRecorder atomic.Pointer[recorder]

// registerTraced registers the wrapper of one registered microthread.
func registerTraced(name string) {
	fn, ok := mthread.Global.Lookup(name)
	if !ok {
		panic("benchmark: microthread " + name + " is not registered")
	}
	mthread.Global.Register(tracedPrefix+name, wrapBody(fn))
}

// tracedApp returns app with every microthread replaced by its traced
// wrapper when traced is set.
func tracedApp(app daemon.App, traced bool) daemon.App {
	if !traced {
		return app
	}
	threads := make([]daemon.AppThread, len(app.Threads))
	for i, t := range app.Threads {
		t.FuncName = tracedPrefix + t.FuncName
		threads[i] = t
	}
	app.Threads = threads
	return app
}

func wrapBody(fn mthread.Func) mthread.Func {
	return func(ctx mthread.Context) error {
		rec := activeRecorder.Load()
		if rec == nil || !rec.enabled.Load() {
			return fn(ctx)
		}
		// A frame whose sender was sampled closes a sched.hop span whether
		// or not its own body is.
		start := rec.now()
		if m, ok := rec.takeSend(ctx.Frame()); ok {
			hop := rec.beginAt(spanHop, noSpan, m.op, m.at)
			if hop != noSpan {
				rec.spans[hop].End = start
			}
		}
		if !rec.sample() {
			return fn(ctx)
		}
		op := uint64(ctx.Program())
		body := rec.beginAt(spanBody, noSpan, op, start)
		err := fn(&tracedContext{Context: ctx, rec: rec, body: body, op: op})
		rec.end(body)
		return err
	}
}

// tracedContext times the calls a microthread makes into the attraction
// memory and the processing manager.
type tracedContext struct {
	mthread.Context
	rec  *recorder
	body int32
	op   uint64
}

func (c *tracedContext) Send(target wire.Target, data []byte) error {
	s := c.rec.begin(spanSend, c.body, c.op)
	c.rec.noteSend(target.Addr, c.rec.now(), c.op)
	err := c.Context.Send(target, data)
	c.rec.end(s)
	return err
}

func (c *tracedContext) NewFrame(threadIdx uint32, arity int, targets ...wire.Target) types.FrameID {
	s := c.rec.begin(spanNewFrame, c.body, c.op)
	id := c.Context.NewFrame(threadIdx, arity, targets...)
	c.rec.end(s)
	return id
}

func (c *tracedContext) NewFramePrio(threadIdx uint32, arity int, prio types.Priority, hint uint32, targets ...wire.Target) types.FrameID {
	s := c.rec.begin(spanNewFrame, c.body, c.op)
	id := c.Context.NewFramePrio(threadIdx, arity, prio, hint, targets...)
	c.rec.end(s)
	return id
}

func (c *tracedContext) Read(addr types.GlobalAddr) ([]byte, error) {
	s := c.rec.begin(spanRead, c.body, c.op)
	b, err := c.Context.Read(addr)
	c.rec.end(s)
	return b, err
}

func (c *tracedContext) Write(addr types.GlobalAddr, offset int, data []byte) error {
	s := c.rec.begin(spanWrite, c.body, c.op)
	err := c.Context.Write(addr, offset, data)
	c.rec.end(s)
	return err
}

func (c *tracedContext) Work(cpuCost float64) {
	s := c.rec.begin(spanWork, c.body, c.op)
	c.Context.Work(cpuCost)
	c.rec.end(s)
}
