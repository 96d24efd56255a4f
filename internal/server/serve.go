package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// drainTimeout bounds how long Shutdown waits for in-flight requests.
const drainTimeout = 15 * time.Second

// Serve serves the API on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// up to drainTimeout to finish, and the remainder are cut off. A clean
// drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds how long a connection may dribble its body:
		// solve/simulate admit a permit before reading, so it caps each
		// connection's permit hold during the read. Against deliberate
		// slow-body permit pinning it composes with two traffic-layer
		// defenses: the per-client rate limiter (Traffic.RatePerClient)
		// makes each reconnect spend a token, so a re-pinning attacker
		// exhausts their bucket within a burst, and the two-class gate
		// caps bulk permits below the pool, so even a fully pinned bulk
		// share never blocks ingest or campaign control. 15s is generous
		// for a 32 MB body on any sane link. No WriteTimeout — a
		// legitimately admitted large solve may take longer to compute
		// than any fixed write deadline.
		ReadTimeout: 15 * time.Second,
		IdleTimeout: 2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Background campaigns stop first (canceled without a store,
		// suspended — resumable on the next boot — with one): a campaign
		// observes the stop between loop steps and settles, and
		// in-flight requests inspecting it still get a consistent
		// snapshot during the drain. The request-drain timer starts only
		// after campaigns settle, so a slow final round cannot eat the
		// documented 15 s budget for in-flight requests.
		s.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
