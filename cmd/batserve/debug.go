// Live introspection endpoints: access-telemetry snapshots, the recent-
// query log, and opt-in pprof. An operator reads them to find the hot
// treelets and regions of a running server; nothing is persisted.
//
//	GET /debug/access              per-dataset access snapshots (JSON)
//	GET /debug/access?format=prometheus   the same as Prometheus series
//	GET /debug/queries[?n=50]      recent queries across datasets, newest last
//	GET /debug/pprof/...           (only with -pprof)
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"

	"libbat/internal/obs/access"
)

// debugAccess serves every dataset's access snapshot.
func (s *server) debugAccess(w http.ResponseWriter, r *http.Request) {
	snaps := s.access.Snapshots()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, snap := range snaps {
			if err := snap.WritePrometheus(w); err != nil {
				return
			}
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"datasets": snaps})
}

// debugQueries serves the recent-query log, merged across datasets and
// ordered oldest to newest. ?n= limits the reply to the newest n records.
func (s *server) debugQueries(w http.ResponseWriter, r *http.Request) {
	type taggedRecord struct {
		Dataset string `json:"dataset"`
		access.QueryRecord
	}
	var all []taggedRecord
	for _, rec := range s.access.Recorders() {
		for _, q := range rec.RecentQueries() {
			all = append(all, taggedRecord{Dataset: rec.Name(), QueryRecord: q})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].UnixNano < all[j].UnixNano })
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		if n < len(all) {
			all = all[len(all)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"queries": all})
}

// registerPprof mounts the net/http/pprof handlers on mux (explicitly, so
// profiling stays off the default mux and off by default).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
