package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/replication"
)

// Flags every record-holding node gets: no world replay at boot (the
// env-dependent sections then render empty on both sides of the
// byte-diff) and no report flushed on shutdown. Everything else stays
// at bounced's defaults, so GOGC=400 and the 1024-slot queue apply.
var nodeFlags = []string{"-no-env", "-flush-sections", ""}

// startSingle boots one single-role node, durable when dataDir is set.
func startSingle(ctx context.Context, ps *procSet, dataDir string) (*child, error) {
	args := nodeFlags
	if dataDir != "" {
		args = append(args[:len(args):len(args)], "-data-dir", dataDir, "-fsync", "batch", "-checkpoint-interval", "0")
	}
	return ps.start(ctx, "single", args...)
}

// shardSet is one replicated shard: a semi-sync durable primary, its
// standby, and the router clients and the coordinator talk to.
type shardSet struct {
	primary, standby, router *child
}

// cluster is the 2×2 topology: two shardSets and a coordinator, seven
// processes.
type cluster struct {
	shards      []shardSet
	coordinator *child
}

const clusterShards = 2

func (cl *cluster) routerURLs() []string {
	out := make([]string, len(cl.shards))
	for i := range cl.shards {
		out[i] = cl.shards[i].router.url
	}
	return out
}

func (cl *cluster) primaryURLs() []string {
	out := make([]string, len(cl.shards))
	for i := range cl.shards {
		out[i] = cl.shards[i].primary.url
	}
	return out
}

// startCluster boots the seven processes tier by tier (each tier needs
// the URLs of the one before) and returns once every router has elected
// its primary and every primary has its standby registered — before
// that a semi-sync ack would wait out its timeout.
func startCluster(ctx context.Context, ps *procSet, dir string) (*cluster, error) {
	cl := &cluster{shards: make([]shardSet, clusterShards)}
	shardArgs := func(i int) []string {
		return []string{"-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(clusterShards)}
	}
	err := eachShard(func(i int) (err error) {
		args := append(append([]string{"-role", "shard"}, shardArgs(i)...),
			"-data-dir", filepath.Join(dir, fmt.Sprintf("primary%d", i)),
			"-repl-ack", "1", "-checkpoint-interval", "0")
		cl.shards[i].primary, err = ps.start(ctx, "primary", append(args, nodeFlags...)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = eachShard(func(i int) (err error) {
		args := append(append([]string{"-role", "standby"}, shardArgs(i)...),
			"-primary", cl.shards[i].primary.url,
			"-data-dir", filepath.Join(dir, fmt.Sprintf("standby%d", i)),
			"-poll-interval", "500ms")
		cl.shards[i].standby, err = ps.start(ctx, "standby", append(args, nodeFlags...)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = eachShard(func(i int) (err error) {
		cl.shards[i].router, err = ps.start(ctx, "router", "-role", "router",
			"-peers", cl.shards[i].primary.url+","+cl.shards[i].standby.url)
		return err
	})
	if err != nil {
		return nil, err
	}
	cl.coordinator, err = ps.start(ctx, "coordinator", "-role", "coordinator", "-no-env",
		"-shards", strings.Join(cl.routerURLs(), ","))
	if err != nil {
		return nil, err
	}
	return cl, eachShard(func(i int) error {
		return waitFor(ctx, fmt.Sprintf("shard %d replica set", i), func() (bool, error) {
			var rs replication.RouterStatus
			if err := scrapeJSON(ctx, cl.shards[i].router.url+replication.PathRouterStatus, &rs); err != nil {
				return false, err
			}
			var st nodeStats
			if err := scrapeJSON(ctx, cl.shards[i].primary.url+"/v1/stats", &st); err != nil {
				return false, err
			}
			return rs.Primary == cl.shards[i].primary.url && st.Replication != nil && len(st.Replication.Standbys) == 1, nil
		})
	})
}

// eachShard runs fn for every shard index concurrently.
func eachShard(fn func(i int) error) error {
	errs := make([]error, clusterShards)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// waitFor polls cond every 10ms for up to 30s.
func waitFor(ctx context.Context, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s: not ready after 30s", what)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}
