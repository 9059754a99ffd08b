// Package daemon is the run loop cmd/powerd and cmd/fleetd share: serve
// a daemon's handler (with net/http/pprof mounted on request) and step
// its pipeline at a fixed interval until the context ends or a step
// fails. It stays apart from internal/serve because net/http/pprof
// registers on http.DefaultServeMux at init and links into every
// importer; only the two commands import this package.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"vmpower/internal/obs"
)

// Loop describes one daemon's serve loop.
type Loop struct {
	Addr    string
	Handler http.Handler
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	Pprof    bool
	Interval time.Duration
	// Step advances the pipeline one tick; its error ends the loop.
	Step func() error
	// Each value on Quit (main's SIGQUIT) writes a flight dump to stderr
	// through Dump, without stopping the loop.
	Quit <-chan os.Signal
	Dump func(w io.Writer, reason string) error
	Log  *obs.Logger
}

// Run serves l.Handler on l.Addr and calls l.Step every l.Interval. It
// returns nil once ctx is done and the server has shut down, a step's
// error after shutting the server down, or the listener's error. A
// non-positive interval is an error before anything is served or
// stepped.
func Run(ctx context.Context, l Loop) error {
	if l.Interval <= 0 {
		return fmt.Errorf("non-positive interval %v", l.Interval)
	}
	handler := l.Handler
	if l.Pprof {
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = outer
	}
	srv := &http.Server{Addr: l.Addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() {
		l.Log.Info("serving", "addr", l.Addr, "pprof", l.Pprof)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}

	ticker := time.NewTicker(l.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return shutdown()
		case err := <-errCh:
			return err
		case <-l.Quit:
			l.Log.Warn("SIGQUIT: dumping flight recorder to stderr")
			if err := l.Dump(os.Stderr, "SIGQUIT"); err != nil {
				l.Log.Error("flight dump failed", "err", err)
			}
		case <-ticker.C:
			if err := l.Step(); err != nil {
				_ = shutdown()
				return err
			}
		}
	}
}
