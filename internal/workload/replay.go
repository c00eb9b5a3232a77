package workload

import (
	"fmt"
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
	// when its trigger fired) and Submitted is when the submit hook was
	// actually called.
	Scheduled, Submitted time.Time
	// SubmitErr is the submit hook's error. A rejected request has no
	// stream, and the fields below stay empty.
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

// Replay plays t against a system under test. One dispatcher calls submit
// for each request in trace order, never before the replay's start plus the
// request's At (a request whose instant has already passed is submitted at
// once); a request with a trigger (Request.After) waits for it instead, and
// holds back the requests after it meanwhile. Each accepted stream is
// drained by its own goroutine, and Replay returns when every stream has
// finished, with one Outcome per request, indexed like t. The submit hook
// is the only place a caller acts at an arrival: it can change fault
// windows or record that the last request is in.
func Replay(t Trace, submit func(i int, r Request) (Stream, error)) []Outcome {
	out := make([]Outcome, len(t))
	// fired[i] closes when request i's trigger fires; waits[p] lists the
	// requests that request p's progress triggers.
	fired := make([]chan struct{}, len(t))
	waits := make([][]int, len(t))
	for i, r := range t {
		if r.After != nil {
			if r.After.Index < 0 || r.After.Index >= i || r.After.Tokens < 1 {
				panic(fmt.Sprintf("workload: request %d triggered by token %d of request %d", i, r.After.Tokens, r.After.Index))
			}
			fired[i] = make(chan struct{})
			waits[r.After.Index] = append(waits[r.After.Index], i)
		}
	}
	// release fires the triggers on request p that n delivered tokens meet,
	// or all that remain once p has ended.
	release := func(p, n int, ended bool) {
		for _, i := range waits[p] {
			if k := t[i].After.Tokens; k == n || ended && k > n {
				close(fired[i])
			}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range t {
		o := &out[i]
		if r.After != nil {
			<-fired[i]
			o.Scheduled = time.Now()
		} else {
			o.Scheduled = start.Add(r.At)
		}
		if d := time.Until(o.Scheduled); d > 0 {
			time.Sleep(d)
		}
		o.Submitted = time.Now()
		st, err := submit(i, r)
		if err != nil {
			o.SubmitErr = err
			release(i, 0, true)
			continue
		}
		o.Stream = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range st.Tokens() {
				o.TokenTimes = append(o.TokenTimes, time.Now())
				release(i, len(o.TokenTimes), false)
			}
			o.Tokens, o.Err = st.Wait()
			release(i, len(o.TokenTimes), true)
		}()
	}
	wg.Wait()
	return out
}
