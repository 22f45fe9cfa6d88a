package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry snapshot as expvar-style JSON.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// NewMux returns an http.ServeMux exposing the registry at /metrics and
// the standard runtime profiler at /debug/pprof/. kimsh and kimsrv
// mount this behind their -http flag; the engine itself never opens a
// socket.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
