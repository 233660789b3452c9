// Package cancel is the cooperative-cancellation primitive the serving
// stack threads through the execution engines: a Flag is an atomic
// cancelled bit plus an optional absolute deadline, and executors poll
// Err at natural work boundaries (one tile run, one exchange segment,
// one pair of Pauli-reduction blocks) so a job that has outlived its budget stops within a
// bounded amount of work instead of running to completion.
//
// The package sits below every engine (kernel, mgpu, observable,
// backend) and depends on nothing, so any layer can poll without import
// cycles. A nil *Flag is valid everywhere and never cancels — callers
// that do not bound their work pass nothing and pay one nil check per
// poll.
package cancel

import (
	"errors"
	"sync/atomic"
	"time"
)

// The two ways a Flag trips. ErrDeadline wraps ErrCancelled so a single
// errors.Is(err, ErrCancelled) catches both; callers that care which
// budget ran out test ErrDeadline first.
var (
	ErrCancelled = errors.New("cancel: execution cancelled")
	ErrDeadline  = errors.New("cancel: deadline exceeded")
)

func init() {
	// Guarantee the wrapping relationship documented above without
	// making ErrDeadline's message redundant.
	ErrDeadline = &deadlineError{}
}

type deadlineError struct{}

func (*deadlineError) Error() string { return "cancel: deadline exceeded" }
func (*deadlineError) Unwrap() error { return ErrCancelled }

// Flag is one job's cancellation state, shared by reference between the
// scheduler that trips it and the executor that polls it. The zero
// value is ready to use and never trips until Cancel or SetDeadline.
type Flag struct {
	cancelled atomic.Bool
	// deadline is the absolute expiry in Unix nanoseconds; 0 means no
	// deadline. Stored as int64 so polls are one atomic load.
	deadline atomic.Int64
}

// WithDeadline returns a Flag that expires at t (zero t = no deadline).
func WithDeadline(t time.Time) *Flag {
	f := &Flag{}
	f.SetDeadline(t)
	return f
}

// Cancel trips the flag immediately.
func (f *Flag) Cancel() {
	if f != nil {
		f.cancelled.Store(true)
	}
}

// SetDeadline sets the absolute expiry. A zero time clears it.
func (f *Flag) SetDeadline(t time.Time) {
	if f == nil {
		return
	}
	if t.IsZero() {
		f.deadline.Store(0)
		return
	}
	f.deadline.Store(t.UnixNano())
}

// Deadline returns the current expiry (zero time = none).
func (f *Flag) Deadline() time.Time {
	if f == nil {
		return time.Time{}
	}
	ns := f.deadline.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Extend only ever loosens the deadline: a zero t removes it, a later t
// replaces an earlier one, and an existing no-deadline state is kept.
// Single-flight joiners use this — a second submission of a running key
// must never tighten the budget the leader is already executing under.
func (f *Flag) Extend(t time.Time) {
	if f == nil {
		return
	}
	for {
		cur := f.deadline.Load()
		if cur == 0 {
			return // already unbounded; nothing is looser
		}
		want := int64(0)
		if !t.IsZero() {
			want = t.UnixNano()
			if want <= cur {
				return // not looser
			}
		}
		if f.deadline.CompareAndSwap(cur, want) {
			return
		}
	}
}

// Err polls the flag: nil while execution may continue, ErrCancelled
// after Cancel, ErrDeadline once the deadline has passed. Safe on a nil
// receiver (always nil) and cheap enough for per-segment polling — one
// atomic load, plus a clock read only when a deadline is set.
func (f *Flag) Err() error {
	if f == nil {
		return nil
	}
	if f.cancelled.Load() {
		return ErrCancelled
	}
	if d := f.deadline.Load(); d != 0 && time.Now().UnixNano() >= d {
		return ErrDeadline
	}
	return nil
}

// Expired reports whether the flag has tripped, without allocating.
func (f *Flag) Expired() bool { return f.Err() != nil }
