// Command qres-serve hosts resolution sessions over HTTP: it loads an
// uncertain database, opens (or creates) a durable probes store, and
// serves the v1 session API until interrupted, at which point it drains
// in-flight requests, snapshots the shared Known Probes Repository and
// exits. See the README's "Serving mode" section for the endpoints and a
// walkthrough.
//
// Serving-mode observability (README "Serving-mode observability"):
//
//	-trace spans.jsonl     request-scoped pipeline span trace (JSONL)
//	-slow-log slow.jsonl   structured log of requests over -slow-threshold
//	-debug-addr :6060      net/http/pprof on a separate listener
//
// Every request carries an X-Request-Id (honored when the client sends
// one, generated otherwise) that is echoed in the response and stamped on
// every pipeline span the request triggers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qres/internal/datagen"
	"qres/internal/obs"
	"qres/internal/resolve"
	"qres/internal/server"
	"qres/internal/store"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		data        = flag.String("data", "paper", "dataset to load: paper | tpch | nell")
		sf          = flag.Float64("sf", 0.002, "TPC-H scale factor (with -data tpch)")
		athletes    = flag.Int("athletes", 220, "NELL athlete count (with -data nell)")
		seed        = flag.Int64("seed", 1, "generation seed (with -data tpch or nell)")
		storeDir    = flag.String("store", "", "probes store directory (empty: in-memory only)")
		storeDirAlt = flag.String("store-dir", "", "alias for -store")
		segBytes    = flag.Int64("wal-segment-bytes", 4<<20, "store: live WAL segment rotation bound")
		compactIntv = flag.Duration("compact-interval", time.Minute, "store: background compaction interval (<=0 disables)")
		maxSessions = flag.Int("max-sessions", 64, "maximum concurrently live sessions")
		ttl         = flag.Duration("ttl", 30*time.Minute, "idle session time-to-live")
		shardW      = flag.Int("shard-workers", 0, "default component-shard workers per session (0 = per CPU, 1 = serial)")
		engineW     = flag.Int("engine-workers", 0, "default engine workers per query evaluation (0 = per CPU, 1 = serial)")
		tracePath   = flag.String("trace", "", "append pipeline span trace to this JSONL file")
		slowPath    = flag.String("slow-log", "", "append slow-request log to this JSONL file")
		slowAfter   = flag.Duration("slow-threshold", 500*time.Millisecond, "slow-request latency threshold")
		stallAfter  = flag.Duration("retrain-stall", 100*time.Millisecond, "answer-path retrain stall threshold (<0 disables)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	)
	flag.Parse()

	dir := *storeDir
	if dir == "" {
		dir = *storeDirAlt
	}
	opts := serveOptions{
		addr: *addr, data: *data, sf: *sf, athletes: *athletes, seed: *seed,
		storeDir: dir, segmentBytes: *segBytes, compactInterval: *compactIntv,
		maxSessions: *maxSessions, ttl: *ttl,
		shardWorkers: *shardW, engineWorkers: *engineW,
		tracePath: *tracePath, slowPath: *slowPath,
		slowAfter: *slowAfter, stallAfter: *stallAfter, debugAddr: *debugAddr,
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

// serveOptions carries the parsed flags into run.
type serveOptions struct {
	addr, data            string
	sf                    float64
	athletes              int
	seed                  int64
	storeDir              string
	segmentBytes          int64
	compactInterval       time.Duration
	maxSessions           int
	shardWorkers          int
	engineWorkers         int
	ttl                   time.Duration
	tracePath, slowPath   string
	slowAfter, stallAfter time.Duration
	debugAddr             string
}

// loadDB builds the uncertain database the service hosts.
func loadDB(data string, sf float64, athletes int, seed int64) (*uncertain.DB, error) {
	switch data {
	case "paper":
		return testdb.PaperUncertainDB(), nil
	case "tpch":
		return datagen.TPCH(datagen.TPCHConfig{SF: sf, Seed: seed}), nil
	case "nell":
		return datagen.NELL(datagen.NELLConfig{Athletes: athletes, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want paper, tpch or nell)", data)
	}
}

// openSink opens path for appending as a JSONL sink whose encode failures
// feed the named drop counter, making trace loss visible on /metrics.
func openSink(path string, reg *obs.Registry, dropCounter string) (*obs.JSONL, *os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	sink := obs.NewJSONL(f)
	sink.CountDrops(reg.Counter(dropCounter))
	return sink, f, nil
}

func run(o serveOptions) error {
	udb, err := loadDB(o.data, o.sf, o.athletes, o.seed)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	cfg := server.Config{
		DB:                    udb,
		MaxSessions:           o.maxSessions,
		SessionTTL:            o.ttl,
		Parallel:              resolve.Parallelism{Shards: o.shardWorkers, Engine: o.engineWorkers},
		Registry:              reg,
		SlowRequestThreshold:  o.slowAfter,
		RetrainStallThreshold: o.stallAfter,
	}
	if o.tracePath != "" {
		sink, f, err := openSink(o.tracePath, reg, "trace_dropped_total")
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		defer f.Close()
		cfg.Trace = sink
	}
	if o.slowPath != "" {
		sink, f, err := openSink(o.slowPath, reg, "slow_log_dropped_total")
		if err != nil {
			return fmt.Errorf("open slow log: %w", err)
		}
		defer f.Close()
		cfg.SlowLog = sink
	}
	if o.storeDir != "" {
		st, repo, err := store.Open(o.storeDir, store.Options{
			NameFn:          udb.Registry().Name,
			ResolveFn:       udb.Registry().Lookup,
			SegmentBytes:    o.segmentBytes,
			CompactInterval: o.compactInterval,
			Metrics:         reg,
		})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		log.Printf("store %s: recovered %d known probes (%d from WAL)",
			o.storeDir, repo.Len(), st.WALRecords())
		cfg.Store = st
		cfg.Repo = repo
	}

	if o.debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Printf("serving %s (%d tuples) on http://%s", o.data, udb.NumVars(), ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shutdown complete: %d known probes persisted", srv.Repo().Len())
	return nil
}
