package daemon

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestRun drives the loop with a cancellable context and a counting
// step: a non-positive interval is refused before anything is served or
// stepped, a failing step ends the loop with its error, and cancelling
// the context shuts the server down and returns nil.
func TestRun(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		interval time.Duration
		failAt   int // step that fails; 0 never
		cancelAt int // step that cancels the context; 0 never
		wantErr  error
		anyErr   bool
		steps    int
	}{
		{name: "zero interval", interval: 0, anyErr: true, steps: 0},
		{name: "negative interval", interval: -time.Second, anyErr: true, steps: 0},
		{name: "failing step", interval: time.Millisecond, failAt: 3, wantErr: errBoom, steps: 3},
		{name: "cancel", interval: time.Millisecond, cancelAt: 2, steps: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			steps := 0
			err := Run(ctx, Loop{
				Addr:     "127.0.0.1:0",
				Handler:  http.NotFoundHandler(),
				Interval: tc.interval,
				Step: func() error {
					steps++
					if steps == tc.cancelAt {
						cancel()
					}
					if steps == tc.failAt {
						return errBoom
					}
					return nil
				},
			})
			switch {
			case tc.anyErr:
				if err == nil {
					t.Fatal("Run returned nil, want an error")
				}
			case !errors.Is(err, tc.wantErr):
				t.Fatalf("Run returned %v, want %v", err, tc.wantErr)
			}
			// A tick already due when the context is cancelled may still
			// step; every other case stops at an exact count.
			if steps != tc.steps && (tc.cancelAt == 0 || steps < tc.steps) {
				t.Fatalf("%d steps, want %d", steps, tc.steps)
			}
		})
	}
}
