package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"qla/internal/serve"
)

// replica is one in-process qlaserve instance on a loopback listener.
type replica struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// baseConfig mirrors the defaults of qlaserve's flags.
func baseConfig() serve.Config {
	return serve.Config{
		CacheBytes:         64 << 20,
		DefaultTimeout:     60 * time.Second,
		MaxTimeout:         10 * time.Minute,
		InteractiveReserve: 1,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// startReplicas starts n replicas; with n > 1 each lists the others as
// peers. The listeners are bound first because peer URLs must be known
// before serve.New runs.
func startReplicas(n int, mutate func(i int, cfg *serve.Config)) ([]*replica, error) {
	ls := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, o := range ls[:i] {
				o.Close()
			}
			return nil, err
		}
		ls[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		cfg := baseConfig()
		if n > 1 {
			for j, u := range urls {
				if j != i {
					cfg.Peers = append(cfg.Peers, u)
				}
			}
			cfg.SelfID = fmt.Sprintf("replica-%d", i)
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := serve.New(cfg)
		if _, err := srv.ReplayJournal(); err != nil {
			srv.Close()
			for _, l := range ls[i:] {
				l.Close()
			}
			stopReplicas(reps[:i])
			return nil, fmt.Errorf("journal replay: %w", err)
		}
		r := &replica{
			srv:  srv,
			hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
			url:  urls[i],
			done: make(chan struct{}),
		}
		go func(l net.Listener) {
			defer close(r.done)
			r.hs.Serve(l)
		}(ls[i])
		reps[i] = r
	}
	return reps, nil
}

// stopReplicas shuts every replica down and waits for its serve loop.
func stopReplicas(reps []*replica) {
	for _, r := range reps {
		if r == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.hs.Shutdown(ctx)
		cancel()
		<-r.done
		r.srv.Close()
	}
}
