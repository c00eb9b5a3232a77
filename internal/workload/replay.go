package workload

import (
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
	// Scheduled is the request's arrival instant (replay start + At) and
	// Submitted is when the submit hook was actually called.
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
// once). Each accepted stream is drained by its own goroutine, and Replay
// returns when every stream has finished, with one Outcome per request,
// indexed like t. The submit hook is the only place a caller acts at an
// arrival: it can change fault windows or record that the last request is
// in.
func Replay(t Trace, submit func(i int, r Request) (Stream, error)) []Outcome {
	out := make([]Outcome, len(t))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range t {
		o := &out[i]
		o.Scheduled = start.Add(r.At)
		if d := time.Until(o.Scheduled); d > 0 {
			time.Sleep(d)
		}
		o.Submitted = time.Now()
		st, err := submit(i, r)
		if err != nil {
			o.SubmitErr = err
			continue
		}
		o.Stream = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range st.Tokens() {
				o.TokenTimes = append(o.TokenTimes, time.Now())
			}
			o.Tokens, o.Err = st.Wait()
		}()
	}
	wg.Wait()
	return out
}
