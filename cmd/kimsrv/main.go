// Command kimsrv serves a kimdb database over the kimw wire protocol.
//
// Usage:
//
//	kimsrv -db DIR [-addr host:port] [-http addr] [-tokens role=tok,...]
//	       [-max-sessions N] [-idle-timeout D] [-drain-timeout D]
//
// kimsrv is the network front end of the embedded engine: each client
// connection becomes an oodb.Session, which reads and writes exactly as an
// embedded one does, with an optional explicit transaction (see
// internal/server). On SIGTERM or SIGINT it drains gracefully — refuses
// new dials, lets in-flight commits finish, aborts stragglers after
// -drain-timeout, checkpoints, and exits.
//
// -http mounts the observability mux (/metrics JSON, /debug/pprof) on a
// separate listener; the wire port carries only protocol frames.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oodb"
	"oodb/internal/obs"
	"oodb/internal/server"
)

var (
	dbDir        = flag.String("db", "", "database directory (required; created if missing)")
	addr         = flag.String("addr", "127.0.0.1:7040", "wire listen address")
	httpAddr     = flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	tokens       = flag.String("tokens", "", "restrict handshakes to these role=token pairs, comma-separated (empty: any role)")
	maxSessions  = flag.Int("max-sessions", 1024, "maximum concurrent sessions")
	maxInFlight  = flag.Int("max-inflight", 0, "maximum concurrently executing requests (0: 4×GOMAXPROCS)")
	idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "evict a session whose client sends no request for this long (a running request is not idle)")
	drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long a drain lets in-flight work finish")
)

func main() {
	flag.Parse()
	if *dbDir == "" {
		fmt.Fprintln(os.Stderr, "kimsrv: -db is required")
		flag.Usage()
		os.Exit(2)
	}

	var tokenMap map[string]string
	if *tokens != "" {
		tokenMap = make(map[string]string)
		for _, pair := range strings.Split(*tokens, ",") {
			role, tok, _ := strings.Cut(strings.TrimSpace(pair), "=")
			if role == "" {
				fmt.Fprintf(os.Stderr, "kimsrv: bad -tokens entry %q (want role=token)\n", pair)
				os.Exit(2)
			}
			tokenMap[role] = tok
		}
	}

	db, err := oodb.Open(*dbDir, oodb.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kimsrv: open:", err)
		os.Exit(1)
	}

	srv := server.New(db, server.Options{
		Addr:        *addr,
		Tokens:      tokenMap,
		MaxSessions: *maxSessions,
		MaxInFlight: *maxInFlight,
		IdleTimeout: *idleTimeout,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "kimsrv: listen:", err)
		os.Exit(1)
	}
	fmt.Printf("kimsrv: serving %s on %s\n", *dbDir, srv.Addr())

	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, obs.NewMux(obs.Default())); err != nil {
				fmt.Fprintln(os.Stderr, "kimsrv: -http:", err)
			}
		}()
		fmt.Printf("kimsrv: metrics on http://%s/metrics\n", *httpAddr)
	}

	// Block until asked to stop, then drain: refuse new dials, finish
	// in-flight commits, abort stragglers at the deadline, checkpoint.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Printf("kimsrv: %v: draining (timeout %v)\n", got, *drainTimeout)
	if err := srv.Drain(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "kimsrv: drain:", err)
		_ = db.Close()
		os.Exit(1)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "kimsrv: close:", err)
		os.Exit(1)
	}
	fmt.Println("kimsrv: clean shutdown")
}
