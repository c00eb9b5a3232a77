package workload

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeStream emits its tokens on an unbuffered channel, so each send blocks
// until the replay's drain goroutine reads it, then reports err from Wait.
type fakeStream struct {
	ch   chan int
	done chan struct{}
	toks []int
	err  error
}

func newFakeStream(toks []int, err error) *fakeStream {
	return heldStream(nil, toks, err)
}

// heldStream is a fakeStream that starts emitting once hold is closed, or
// after two seconds.
func heldStream(hold <-chan struct{}, toks []int, err error) *fakeStream {
	st := &fakeStream{ch: make(chan int), done: make(chan struct{}), toks: toks, err: err}
	go func() {
		if hold != nil {
			select {
			case <-hold:
			case <-time.After(2 * time.Second):
			}
		}
		for _, tok := range toks {
			time.Sleep(200 * time.Microsecond)
			st.ch <- tok
		}
		close(st.ch)
		close(st.done)
	}()
	return st
}

func (st *fakeStream) Tokens() <-chan int { return st.ch }

func (st *fakeStream) Wait() ([]int, error) {
	<-st.done
	return append([]int(nil), st.toks...), st.err
}

// replayTrace is n requests spaced gap apart, request i budgeting i+1
// tokens.
func replayTrace(n int, gap time.Duration) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = Request{At: time.Duration(i) * gap, Session: -1, Prompt: []int{i}, MaxNewTokens: i + 1}
	}
	return t
}

// TestReplaySubmitsInOrderNotEarly checks that the dispatcher submits in
// trace order and never before the replay start plus each request's At, and
// that every outcome records its scheduled and actual submit instants.
func TestReplaySubmitsInOrderNotEarly(t *testing.T) {
	trace := replayTrace(6, 3*time.Millisecond)
	var (
		order []int
		at    []time.Time
	)
	before := time.Now()
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		order = append(order, i)
		at = append(at, time.Now())
		if r.Prompt[0] != i {
			t.Errorf("hook got request %v as index %d", r.Prompt, i)
		}
		return newFakeStream(make([]int, r.MaxNewTokens), nil), nil
	})
	if len(outs) != len(trace) {
		t.Fatalf("%d outcomes for %d requests", len(outs), len(trace))
	}
	for i := range trace {
		if order[i] != i {
			t.Fatalf("submission order %v, want trace order", order)
		}
		if early := trace[i].At - at[i].Sub(before); early > 0 {
			t.Errorf("request %d submitted %v before its arrival", i, early)
		}
		o := outs[i]
		if got := o.Scheduled.Sub(outs[0].Scheduled); got != trace[i].At {
			t.Errorf("request %d scheduled %v after request 0, want %v", i, got, trace[i].At)
		}
		if o.Submitted.Before(o.Scheduled) || o.Submitted.After(at[i]) {
			t.Errorf("request %d: submitted %v, scheduled %v, hook ran %v", i, o.Submitted, o.Scheduled, at[i])
		}
	}
}

// TestReplayDrainsEveryStream checks that Replay returns only after every
// accepted stream is drained and waited on, recording the Wait result and
// one arrival time per token, while a rejected request is recorded without
// a stream or a drain.
func TestReplayDrainsEveryStream(t *testing.T) {
	trace := replayTrace(5, 0)
	errReject := errors.New("rejected")
	errStream := errors.New("stream failed")
	streams := make([]*fakeStream, len(trace))
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		if i == 2 {
			return nil, errReject
		}
		var err error
		if i == 4 {
			err = errStream
		}
		toks := make([]int, r.MaxNewTokens)
		for j := range toks {
			toks[j] = 10*i + j
		}
		streams[i] = newFakeStream(toks, err)
		return streams[i], nil
	})
	for i, o := range outs {
		if i == 2 {
			if o.SubmitErr != errReject || o.Stream != nil || o.Tokens != nil || o.TokenTimes != nil || o.Err != nil {
				t.Errorf("rejected request outcome %+v, want only the submit error", o)
			}
			continue
		}
		if o.SubmitErr != nil || o.Stream != Stream(streams[i]) {
			t.Errorf("request %d: submit error %v, stream %v", i, o.SubmitErr, o.Stream)
		}
		if _, open := <-streams[i].ch; open {
			t.Errorf("request %d: stream still holds tokens after Replay returned", i)
		}
		if len(o.Tokens) != trace[i].MaxNewTokens || len(o.TokenTimes) != len(o.Tokens) {
			t.Errorf("request %d: %d tokens, %d arrival times, want %d each",
				i, len(o.Tokens), len(o.TokenTimes), trace[i].MaxNewTokens)
		}
		for j, tok := range o.Tokens {
			if tok != 10*i+j {
				t.Errorf("request %d token %d = %d, want %d", i, j, tok, 10*i+j)
			}
		}
		for j := 1; j < len(o.TokenTimes); j++ {
			if o.TokenTimes[j].Before(o.TokenTimes[j-1]) {
				t.Errorf("request %d: token %d arrived before token %d", i, j, j-1)
			}
		}
		if len(o.TokenTimes) > 0 && o.TokenTimes[0].Before(o.Submitted) {
			t.Errorf("request %d: first token before submission", i)
		}
		wantErr := error(nil)
		if i == 4 {
			wantErr = errStream
		}
		if o.Err != wantErr {
			t.Errorf("request %d: Wait error %v, want %v", i, o.Err, wantErr)
		}
	}
}

// TestReplayEdgeTraces covers the empty trace (no submissions, no
// outcomes) and a trace whose every arrival is at 0, which submits
// back to back in trace order.
func TestReplayEdgeTraces(t *testing.T) {
	calls := 0
	outs := Replay(context.Background(), nil, func(int, Request) (Stream, error) {
		calls++
		return nil, nil
	})
	if len(outs) != 0 || calls != 0 {
		t.Errorf("empty trace: %d outcomes, %d submissions", len(outs), calls)
	}

	trace := replayTrace(8, 0)
	var order []int
	outs = Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		order = append(order, i)
		return newFakeStream(make([]int, r.MaxNewTokens), nil), nil
	})
	for i, o := range outs {
		if order[i] != i {
			t.Fatalf("all-zero trace submitted in order %v", order)
		}
		if !o.Scheduled.Equal(outs[0].Scheduled) {
			t.Errorf("request %d scheduled at a different instant than request 0", i)
		}
		if len(o.Tokens) != trace[i].MaxNewTokens {
			t.Errorf("request %d: %d tokens, want %d", i, len(o.Tokens), trace[i].MaxNewTokens)
		}
	}
}

// TestReplayTriggers checks event arrivals: a request triggered by another's
// k-th token is submitted after that token arrived and never before, a
// trigger past a stream's last token fires when the stream ends, and one on
// a rejected request fires at the rejection. Trigger fields appear in
// Encode only on triggered requests.
func TestReplayTriggers(t *testing.T) {
	trace := replayTrace(6, 0)
	trace[0].MaxNewTokens = 5
	trace[2].After = &Trigger{Index: 0, Tokens: 3}
	trace[3].After = &Trigger{Index: 1, Tokens: 9} // request 1 delivers 2
	trace[4].At = time.Minute                      // ignored
	trace[4].After = &Trigger{Index: 2, Tokens: 1} // request 2 is rejected
	trace[5].After = &Trigger{Index: 4, Tokens: 1}
	start := time.Now()
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		if i == 2 {
			return nil, errors.New("rejected")
		}
		return newFakeStream(make([]int, r.MaxNewTokens), nil), nil
	})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("replay took %v: a triggered request waited for its At", elapsed)
	}
	if got := outs[2].Submitted; got.Before(outs[0].TokenTimes[2]) {
		t.Errorf("request 2 submitted at %v, before request 0's third token at %v", got, outs[0].TokenTimes[2])
	}
	if last := outs[1].TokenTimes[len(outs[1].TokenTimes)-1]; outs[3].Submitted.Before(last) {
		t.Errorf("request 3 submitted before request 1 ended")
	}
	for i, o := range outs {
		if i != 2 && len(o.Tokens) != trace[i].MaxNewTokens {
			t.Errorf("request %d: %d tokens, want %d", i, len(o.Tokens), trace[i].MaxNewTokens)
		}
	}
	lines := strings.Split(strings.TrimSuffix(trace.Encode(), "\n"), "\n")
	for i, line := range lines {
		if has := strings.Contains(line, "after="); has != (trace[i].After != nil) {
			t.Errorf("encoded request %d %q: trigger field present %v", i, line, has)
		}
	}
	if !strings.HasSuffix(lines[2], "\tafter=0@3") {
		t.Errorf("encoded request 2 %q, want its trigger after=0@3", lines[2])
	}
}

// TestReplayFiresTriggerOnce is the regression for a trigger on exactly the
// predecessor's last token: it must fire at that token and not again when
// the stream ends.
func TestReplayFiresTriggerOnce(t *testing.T) {
	trace := replayTrace(2, 0)
	trace[0].MaxNewTokens = 2
	trace[1].After = &Trigger{Index: 0, Tokens: 2}
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		return newFakeStream(make([]int, r.MaxNewTokens), nil), nil
	})
	if got := outs[1].Submitted; got.Before(outs[0].TokenTimes[1]) {
		t.Errorf("request 1 submitted at %v, before request 0's second token at %v", got, outs[0].TokenTimes[1])
	}
	if len(outs[1].Tokens) != trace[1].MaxNewTokens {
		t.Errorf("request 1: %d tokens, want %d", len(outs[1].Tokens), trace[1].MaxNewTokens)
	}
}

// TestReplayClosedLoopNoHeadOfLine checks that triggered requests do not
// queue behind each other: with two closed-loop users, user 1's second
// request is submitted while user 0's first request, which only starts
// emitting once that submit happened, is still running.
func TestReplayClosedLoopNoHeadOfLine(t *testing.T) {
	trace := ClosedLoop(replayTrace(4, 0), 2, make([]time.Duration, 4))
	trace[0].MaxNewTokens = 40
	if a := trace[3].After; a == nil || a.Index != 1 || a.Delay != 0 {
		t.Fatalf("request 3 trigger %+v, want the end of request 1", a)
	}
	hold := make(chan struct{})
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		if i == 0 {
			return heldStream(hold, make([]int, r.MaxNewTokens), nil), nil
		}
		if i == 3 {
			close(hold)
		}
		return newFakeStream(make([]int, r.MaxNewTokens), nil), nil
	})
	end0 := outs[0].TokenTimes[len(outs[0].TokenTimes)-1]
	if !outs[3].Submitted.Before(end0) {
		t.Errorf("user 1's second request submitted %v after user 0's first ended", outs[3].Submitted.Sub(end0))
	}
	if last := outs[1].TokenTimes[len(outs[1].TokenTimes)-1]; outs[3].Submitted.Before(last) {
		t.Errorf("request 3 submitted before its predecessor, request 1, ended")
	}
	if outs[2].Submitted.Before(end0) {
		t.Errorf("request 2 submitted before its predecessor, request 0, ended")
	}
}

// TestReplayTriggerDelay checks that a triggered request is submitted no
// earlier than its trigger plus Delay, and that Encode writes the delay.
func TestReplayTriggerDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	trace := replayTrace(2, 0)
	trace[1].After = &Trigger{Index: 0, Tokens: 1, Delay: delay}
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		return newFakeStream(make([]int, r.MaxNewTokens), nil), nil
	})
	if got := outs[1].Submitted.Sub(outs[0].TokenTimes[0]); got < delay {
		t.Errorf("request 1 submitted %v after its trigger, want at least %v", got, delay)
	}
	if outs[1].Submitted.Before(outs[1].Scheduled) {
		t.Errorf("request 1 submitted before its scheduled instant")
	}
	if enc := trace.Encode(); !strings.Contains(enc, "\tafter=0@1+20000us\n") {
		t.Errorf("encoded trace %q lacks the delayed trigger after=0@1+20000us", enc)
	}
}

// TestReplayCancel checks that a cancelled context stops submissions at
// once, records the context's error on every request not yet submitted, and
// still drains the accepted stream before Replay returns.
func TestReplayCancel(t *testing.T) {
	trace := replayTrace(5, time.Second)
	trace[4].After = &Trigger{Index: 3, Tokens: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	var st *fakeStream
	outs := Replay(ctx, trace, func(i int, r Request) (Stream, error) {
		if i != 0 {
			t.Errorf("request %d submitted after the cancel", i)
		}
		st = heldStream(ctx.Done(), []int{7}, nil)
		return st, nil
	})
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Errorf("cancelled replay took %v to return", elapsed)
	}
	if _, open := <-st.ch; open || len(outs[0].Tokens) != 1 || outs[0].SubmitErr != nil {
		t.Errorf("accepted request not drained: %+v", outs[0])
	}
	for i, o := range outs[1:] {
		if !errors.Is(o.SubmitErr, context.Canceled) || o.Stream != nil || !o.Submitted.IsZero() {
			t.Errorf("request %d: submit error %v, stream %v, submitted %v; want only context.Canceled", i+1, o.SubmitErr, o.Stream, o.Submitted)
		}
	}
}

// TestReplayHookSerial checks that the submit hook is never entered
// concurrently, with timed arrivals and many triggers firing at once.
func TestReplayHookSerial(t *testing.T) {
	const users, n = 4, 32
	trace := ClosedLoop(replayTrace(n, 0), users, make([]time.Duration, n))
	trace = append(trace, replayTrace(8, 100*time.Microsecond)...)
	var inHook, calls atomic.Int32
	outs := Replay(context.Background(), trace, func(i int, r Request) (Stream, error) {
		if inHook.Add(1) > 1 {
			t.Errorf("hook entered concurrently at request %d", i)
		}
		calls.Add(1)
		time.Sleep(50 * time.Microsecond)
		inHook.Add(-1)
		return newFakeStream(make([]int, 1+i%3), nil), nil
	})
	if int(calls.Load()) != len(trace) {
		t.Errorf("%d hook calls for %d requests", calls.Load(), len(trace))
	}
	for i, o := range outs {
		if o.SubmitErr != nil || len(o.Tokens) != 1+i%3 {
			t.Errorf("request %d: submit error %v, %d tokens", i, o.SubmitErr, len(o.Tokens))
		}
	}
}
