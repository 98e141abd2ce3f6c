// Command drill runs the kill -9 differentials over real bounced
// processes (make chaos-kill | chaos-failover | chaos-shard-failover):
//
//	go run ./scripts/drill kill|failover|shard-failover
//
// Every scenario is one row of the table below over one skeleton:
// build cmd/bounced, generate a seeded corpus, boot the row's topology
// on kernel-chosen ports, replay the corpus through bounced.Chaos
// (idempotent X-Batch-Id batches, retried until accepted), SIGKILL the
// victim once it has accepted a seeded share of the stream, require
// what the row says must happen next, let the client finish through the
// outage, and compare the served report byte for byte with the batch
// analysis of the same records. See DESIGN.md §11, §12, §14.
//
// On failure the work dir — the corpus, every child's log and data dir,
// both reports — is kept and its path printed; on success it is removed.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/world"
)

// What must happen after the kill for the client to finish the stream.
const (
	// restart: the victim boots again on the same -data-dir and address,
	// and must come back from a checkpoint plus the WAL tail, not from a
	// cold replay of the whole log.
	restart = iota
	// promote: the victim stays dead; its standby promotes itself at
	// epoch >= 2 and the set's router re-elects it.
	promote
)

type scenario struct {
	name string
	seed uint64 // batch-ID namespace and kill point
	// Topology. shards == 0 is one set of nodes holding the whole stream,
	// and its full report is the one compared; shards > 0 is that many
	// shard sets behind a coordinator, whose merged report is. standby
	// makes every set a semi-sync durable primary, a standby and a router
	// in front of both; without it a set is one durable node.
	shards  int
	standby bool
	// victim is the set whose primary is SIGKILLed, once it has accepted
	// killBase + (seed*7919 mod killSpan) of the corpus, both as shares
	// of the email count: deterministically mid-stream, not at a
	// wall-clock guess.
	victim             int
	killBase, killSpan float64
	then               int // restart or promote
}

var scenarios = []scenario{
	{name: "kill", seed: 11, killBase: 1. / 4, killSpan: 2. / 5, then: restart},
	{name: "failover", seed: 13, standby: true, killBase: 1. / 4, killSpan: 2. / 5, then: promote},
	// The shares are of the whole corpus; shard 0 owns about half of it.
	{name: "shard-failover", seed: 11, shards: 2, standby: true, killBase: 1. / 8, killSpan: 1. / 5, then: promote},
}

const (
	emails     = 20000 // corpus scale; attackers and retries add records
	corpusSeed = 5
	// The rate cap holds the stream open for a few seconds, long enough
	// for the kill to land mid-flight; the retry budget rides out a
	// restart or a promotion window of 502/503s.
	batchSize = 128
	rate      = 6000
	retries   = 100000
)

func (sc scenario) killAt() uint64 {
	return uint64(sc.killBase*emails) + sc.seed*7919%uint64(sc.killSpan*emails)
}

// Flags of every record-holding node: no world replay at boot (the
// env-dependent sections render empty on both sides of the diff), no
// report flushed at shutdown, checkpoints often enough that one exists
// by the time the kill lands.
var nodeFlags = []string{"-no-env", "-flush-sections", "", "-checkpoint-interval", "500ms"}

// set is one record-holding unit of the topology; standby and router
// are nil without scenario.standby.
type set struct {
	primary, standby, router *child
}

// fronts is where clients and the coordinator reach each set.
func fronts(sets []set) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = s.primary.url
		if s.router != nil {
			out[i] = s.router.url
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	i, names := -1, make([]string, len(scenarios))
	for j, sc := range scenarios {
		names[j] = sc.name
		if len(os.Args) == 2 && os.Args[1] == sc.name {
			i = j
		}
	}
	if i < 0 {
		log.Fatalf("usage: go run ./scripts/drill %s", strings.Join(names, "|"))
	}
	sc := scenarios[i]
	log.SetPrefix("chaos-" + sc.name + ": ")
	work, err := os.MkdirTemp("", "drill-"+sc.name+"-")
	if err != nil {
		log.Fatal(err)
	}
	if err := run(sc, work); err != nil {
		log.Printf("FAIL: %v", err)
		log.Fatalf("work dir kept: %s", work)
	}
	os.RemoveAll(work)
}

func run(sc scenario, work string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeoutCause(ctx, 5*time.Minute, errors.New("drill ran past 5 minutes"))
	defer cancel()
	ctx, fail := context.WithCancelCause(ctx)
	ps := &procs{ctx: ctx, fail: fail, bin: filepath.Join(work, "bounced"), dir: work}
	defer ps.killAll() // on every way out of run, a panic included

	log.Print("building cmd/bounced, generating the corpus")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", ps.bin, "repro/cmd/bounced").CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	cfg := world.DefaultConfig()
	cfg.TotalEmails, cfg.Seed = emails, corpusSeed
	_, recs := bounce.GenerateParallel(cfg, runtime.NumCPU())
	corpus := filepath.Join(work, "corpus.jsonl")
	if err := dataset.WriteFile(corpus, recs); err != nil {
		return err
	}
	// Decoded back, so the reference analyses what the servers will see:
	// batch bounceanalyze over every corpus record in order, and for a
	// coordinator the sections its merged partials render.
	recs, err := dataset.ReadFile(corpus)
	if err != nil {
		return err
	}
	sections := bounce.AllSections
	if sc.shards > 0 {
		sections = bounce.PartialSections
	}
	var ref bytes.Buffer
	if err := bounce.Reference(dataset.NewSliceSource(recs), nil).WriteReport(&ref, sections); err != nil {
		return err
	}
	want := ref.Bytes()

	sets, coord, err := boot(ps, sc)
	if err != nil {
		return err
	}
	urls := fronts(sets)
	reportURL := urls[0] + "/v1/report?section=all"
	client := bounced.ChaosConfig{
		URL: urls[0], Path: corpus, BatchSize: batchSize, Rate: rate, Seed: sc.seed, MaxRetries: retries,
	}
	if coord != nil {
		reportURL = coord.url + "/v1/report"
		client.ShardURLs = urls
	}
	streamed := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				streamed <- fmt.Errorf("client panicked: %v", p)
			}
		}()
		res, err := bounced.Chaos(client)
		if res != nil {
			log.Printf("client: %d records in %d batches (%d presented, %d retries, %d shed, %d faulted) in %.2fs",
				res.Records, res.Batches, res.Presented, res.Retries, res.Shed, res.Faulted, res.Seconds)
		}
		streamed <- err
	}()

	victim := sets[sc.victim].primary
	err = ps.waitFor(fmt.Sprintf("%s to accept %d records", victim.name, sc.killAt()), func() (bool, error) {
		select {
		case err := <-streamed:
			return false, fmt.Errorf("the stream ended first (client error: %v)", err)
		default:
		}
		var st nodeStats
		err := getJSON(victim.url+"/v1/stats", &st)
		return st.Accepted >= sc.killAt(), err
	})
	if err != nil {
		return err
	}
	log.Printf("kill -9 %s at >= %d accepted records", victim.name, sc.killAt())
	victim.kill()

	var survivors []*child // who must hold every record between them, promote only
	switch sc.then {
	case restart:
		log.Print("restarting it on the same data dir (the client is retrying meanwhile)")
		reborn, err := ps.start(victim.name+"-reboot", victim.addr, victim.args...)
		if err != nil {
			return err
		}
		var st nodeStats
		if err := getJSON(reborn.url+"/v1/stats", &st); err != nil {
			return err
		}
		rec := st.Durability.Recovery
		log.Printf("recovered: checkpoint at %d records, %d replayed from the WAL", rec.CheckpointRecords, rec.Replayed)
		if rec.CheckpointRecords == 0 {
			return errors.New("second boot found no checkpoint: a cold full-log replay, or an empty data dir")
		}
	case promote:
		heir, router := sets[sc.victim].standby, sets[sc.victim].router
		var ns replication.NodeStatus
		err := ps.waitFor(heir.name+" to promote itself", func() (bool, error) {
			err := getJSON(heir.url+replication.PathStatus, &ns)
			return ns.Role == "primary", err
		})
		if err != nil {
			return err
		}
		if ns.Epoch < 2 {
			return fmt.Errorf("promoted %s reports epoch %d, want >= 2", heir.name, ns.Epoch)
		}
		log.Printf("%s promoted at epoch %d", heir.name, ns.Epoch)
		if err := waitElected(ps, router, heir); err != nil {
			return err
		}
		if coord != nil {
			// The coordinator's topology view must carry the bumped epoch
			// through its router probe.
			var cs coordStats
			if err := getJSON(coord.url+"/v1/stats", &cs); err != nil {
				return err
			}
			if len(cs.Shards) <= sc.victim || cs.Shards[sc.victim].Epoch != ns.Epoch {
				return fmt.Errorf("coordinator stats %+v do not show shard %d at the promoted epoch %d", cs, sc.victim, ns.Epoch)
			}
		}
		for _, s := range sets {
			survivors = append(survivors, s.primary)
		}
		survivors[sc.victim] = heir
	}

	select {
	case err := <-streamed:
		if err != nil {
			return fmt.Errorf("client did not finish the stream through the outage: %w", err)
		}
	case <-ctx.Done():
		return fmt.Errorf("waiting for the client to finish: %w", context.Cause(ctx))
	}

	// Zero loss, zero double-count: the survivors together folded every
	// corpus record exactly once. (-repl-ack 1 holds each ack until the
	// standby applied the batch, and an un-acked batch was retried under
	// its original ID until the survivor took or deduped it.)
	if len(survivors) > 0 {
		var sum uint64
		err := ps.waitFor("the survivors to consume the whole corpus", func() (bool, error) {
			sum = 0
			for _, c := range survivors {
				var ns replication.NodeStatus
				if err := getJSON(c.url+replication.PathStatus, &ns); err != nil {
					return false, err
				}
				sum += ns.Consumed
			}
			return sum == uint64(len(recs)), nil
		})
		if err != nil {
			return fmt.Errorf("survivors consumed %d records, corpus has %d: %w", sum, len(recs), err)
		}
	}

	// The report comes back through the front the client used (the
	// router, or the coordinator's fan-in through the routers) — proof
	// the re-election was followed — and must match batch byte for byte.
	got, err := get(reportURL)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		for name, b := range map[string][]byte{"report_reference.txt": want, "report_served.txt": got} {
			if err := os.WriteFile(filepath.Join(work, name), b, 0o644); err != nil {
				return err
			}
		}
		return fmt.Errorf("served report (%d bytes) differs from the batch reference (%d bytes); both are in the work dir", len(got), len(want))
	}
	log.Printf("PASS: report byte-identical to batch across the kill (%d bytes, %d records)", len(got), len(recs))
	return nil
}

// boot starts the scenario's topology tier by tier — each tier needs
// the addresses of the one before — and returns once every router has
// elected its primary.
func boot(ps *procs, sc scenario) ([]set, *child, error) {
	sets := make([]set, max(sc.shards, 1))
	for i := range sets {
		s := &sets[i]
		tag := fmt.Sprintf("set%d-", i)
		var role, shard []string
		if sc.shards > 0 {
			role = []string{"-role", "shard"}
			shard = []string{"-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(sc.shards)}
		}
		args := slices.Concat(role, shard, nodeFlags, []string{"-data-dir", filepath.Join(ps.dir, tag+"primary")})
		if sc.standby {
			args = append(args, "-repl-ack", "1")
		}
		var err error
		if s.primary, err = ps.start(tag+"primary", "127.0.0.1:0", args...); err != nil {
			return nil, nil, err
		}
		if !sc.standby {
			continue
		}
		// A standby carries its primary's shard coordinates, so a
		// promotion keeps enforcing ownership.
		s.standby, err = ps.start(tag+"standby", "127.0.0.1:0", slices.Concat([]string{"-role", "standby"}, shard, nodeFlags,
			[]string{"-primary", s.primary.url, "-data-dir", filepath.Join(ps.dir, tag+"standby"),
				"-failover-timeout", "2s", "-poll-interval", "500ms"})...)
		if err != nil {
			return nil, nil, err
		}
		s.router, err = ps.start(tag+"router", "127.0.0.1:0", "-role", "router", "-peers", s.primary.url+","+s.standby.url)
		if err != nil {
			return nil, nil, err
		}
		if err := waitElected(ps, s.router, s.primary); err != nil {
			return nil, nil, err
		}
	}
	if sc.shards == 0 {
		return sets, nil, nil
	}
	coord, err := ps.start("coordinator", "127.0.0.1:0", "-role", "coordinator", "-no-env", "-shards", strings.Join(fronts(sets), ","))
	return sets, coord, err
}

func waitElected(ps *procs, router, node *child) error {
	return ps.waitFor(fmt.Sprintf("%s to elect %s", router.name, node.name), func() (bool, error) {
		var rs replication.RouterStatus
		err := getJSON(router.url+replication.PathRouterStatus, &rs)
		return rs.Primary == node.url, err
	})
}

// The slices of /v1/stats the drills read.
type nodeStats struct {
	Accepted   uint64 `json:"accepted"`
	Durability struct {
		Recovery bounced.RecoveryInfo `json:"recovery"`
	} `json:"durability"`
}

type coordStats struct {
	Shards []struct {
		Epoch uint64 `json:"epoch"`
	} `json:"shards"`
}
