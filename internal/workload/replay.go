package workload

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Stream is an accepted request's token stream. serve.Stream and
// cluster.Stream both satisfy it: Tokens is closed when the request
// finishes, and Wait then returns the full output and the terminal error.
type Stream interface {
	Tokens() <-chan int
	Wait() ([]int, error)
}

// Outcome is what happened to one replayed request.
type Outcome struct {
	// Scheduled is the request's arrival instant (replay start + At, or
	// when its trigger fired plus the trigger's Delay) and Submitted is
	// when the submit hook was actually called.
	Scheduled, Submitted time.Time
	// SubmitErr is the submit hook's error, or the context's error for a
	// request the replay stopped before submitting. A rejected request has
	// no stream, and the fields below stay empty.
	SubmitErr error
	// Stream is the accepted request's stream, for callers that read
	// implementation state (such as serve.Stream.KVQuantized) after the
	// drain.
	Stream Stream
	// Tokens and Err are the stream's Wait result.
	Tokens []int
	Err    error
	// TokenTimes holds when each token arrived on the stream's channel.
	TokenTimes []time.Time
}

// ClosedLoop makes t the traffic of users clients that each wait for their
// answer, think, and ask again: request i goes to client i%users and arrives
// think[i] after the client's previous request, i−users, has ended (its
// trigger lies past any budget). A client's first request arrives think[i]
// after the replay starts. It returns t, changed in place.
func ClosedLoop(t Trace, users int, think []time.Duration) Trace {
	for i := range t {
		if i < users {
			t[i].At = think[i]
		} else {
			t[i].After = &Trigger{Index: i - users, Tokens: math.MaxInt, Delay: think[i]}
		}
	}
	return t
}

// Replay plays t against a system under test. One dispatcher goroutine
// calls submit for each request as it falls due: a request without a
// trigger at the replay's start plus its At, in trace order, and a
// triggered request (Request.After) its trigger's Delay after the trigger
// fired, whatever the requests before it are waiting for. A request is
// never submitted early; one whose instant has passed is submitted at once.
// Once ctx is done nothing more is submitted, and each request not yet
// submitted records ctx.Err() as its SubmitErr. Each accepted stream is
// drained by its own goroutine, and Replay returns when every stream has
// finished, with one Outcome per request, indexed like t. The submit hook,
// never entered concurrently, is the only place a caller acts at an
// arrival: it can change fault windows or record that the last request is
// in.
func Replay(ctx context.Context, t Trace, submit func(i int, r Request) (Stream, error)) []Outcome {
	out := make([]Outcome, len(t))
	// waits[p] lists the requests that request p's progress triggers.
	waits := make([][]int, len(t))
	for i, r := range t {
		if r.After != nil {
			if r.After.Index < 0 || r.After.Index >= i || r.After.Tokens < 1 {
				panic(fmt.Sprintf("workload: request %d triggered by token %d of request %d", i, r.After.Tokens, r.After.Index))
			}
			waits[r.After.Index] = append(waits[r.After.Index], i)
		}
	}
	// ready receives each request once, when it falls due and its
	// Scheduled instant is set. It buffers the whole trace, so no send
	// blocks, not even a trigger's that fires after a cancel.
	ready := make(chan int, len(t))
	// release fires the triggers on request p whose token count lies in
	// (lo, hi]: one at each delivered token, all that remain when p ends.
	release := func(p, lo, hi int) {
		for _, i := range waits[p] {
			if a := t[i].After; lo < a.Tokens && a.Tokens <= hi {
				out[i].Scheduled = time.Now().Add(a.Delay)
				time.AfterFunc(a.Delay, func() { ready <- i })
			}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range t {
			if r.After != nil {
				continue
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(r.At - time.Since(start)):
				out[i].Scheduled = start.Add(r.At)
				ready <- i
			}
		}
	}()

	for left := len(t); left > 0; left-- {
		var i int
		select {
		case <-ctx.Done():
		case i = <-ready:
		}
		if ctx.Err() != nil {
			break
		}
		o := &out[i]
		o.Submitted = time.Now()
		st, err := submit(i, t[i])
		if err != nil {
			o.SubmitErr = err
			release(i, 0, math.MaxInt)
			continue
		}
		o.Stream = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range st.Tokens() {
				o.TokenTimes = append(o.TokenTimes, time.Now())
				release(i, len(o.TokenTimes)-1, len(o.TokenTimes))
			}
			o.Tokens, o.Err = st.Wait()
			release(i, len(o.TokenTimes), math.MaxInt)
		}()
	}
	for i := range out {
		if out[i].Submitted.IsZero() {
			out[i].SubmitErr = ctx.Err()
		}
	}
	wg.Wait()
	return out
}
