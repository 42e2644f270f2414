package main

import (
	"time"

	"roadknn/internal/cluster"
	"roadknn/internal/experiments"
	"roadknn/internal/serve"
	"roadknn/internal/workload"
)

// follower is the traced pass's replica: one cluster.Follower over its own
// engine, advanced only by explicit SyncOnce calls between the primary's
// ticks, so it never competes with the primary for a core.
type follower struct {
	srv        *serve.Server
	f          *cluster.Follower
	bootstrapS float64 // Bootstrap plus the first sync (the initial population)
}

func startFollower(sp *spec, cfg workload.Config, primary string) (*follower, error) {
	t0 := time.Now()
	eng := experiments.EngineWith(sp.engine, engineOptions(sp))(workload.BuildNetwork(cfg))
	srv := serve.New(eng, serve.Config{Follower: true, CheckpointEvery: checkpointEvery})
	f := cluster.NewFollower(srv, cluster.FollowerConfig{Primary: primary})
	err := f.Bootstrap()
	if err == nil {
		_, err = f.SyncOnce(0)
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &follower{srv: srv, f: f, bootstrapS: time.Since(t0).Seconds()}, nil
}

func (f *follower) stop() { f.srv.Close() }
