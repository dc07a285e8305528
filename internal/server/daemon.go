package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the listen-serve-drain sequence helmd and helmgw share.
type Daemon struct {
	Addr    string
	Handler http.Handler
	// Listening is told the bound address once the socket is open and
	// SIGHUP is routed to Reload (launchers using port 0 parse it).
	Listening func(net.Addr)
	// Reload runs on each SIGHUP while serving.
	Reload func()
	// Drain stops admission and finishes in-flight work by its
	// context's deadline, a fresh DrainTimeout from when it is called.
	Drain        func(ctx context.Context) error
	DrainTimeout time.Duration
}

// Run listens on d.Addr and serves d.Handler until ctx ends (the
// daemons' SIGINT/SIGTERM context), then drains before it closes the
// listener, so requests admitted a moment before the signal complete
// rather than racing connection teardown. The drain runs once whichever
// way serving ends — also when the listen or the serve fails — and on
// a deadline of its own, because ctx may already be done: the daemons
// anchor their servers on Background, leaving force-cancel to the
// drain deadline. Run returns the listen or serve error, else the
// drain's.
func (d Daemon) Run(ctx context.Context) error {
	drain := func() error {
		drainCtx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
		defer cancel()
		return d.Drain(drainCtx)
	}
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		drain()
		return err
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	reloadCtx, stopReloads := context.WithCancel(ctx)
	defer stopReloads()
	reloadsDone := make(chan struct{})
	go func() {
		defer close(reloadsDone)
		for {
			select {
			case <-hup:
				d.Reload()
			case <-reloadCtx.Done():
				return
			}
		}
	}()
	d.Listening(ln.Addr())

	hs := &http.Server{Handler: d.Handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopReloads()
		<-reloadsDone
		drain()
		return fmt.Errorf("listener failed: %w", err)
	case <-ctx.Done():
	}
	<-reloadsDone
	drainErr := drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}
