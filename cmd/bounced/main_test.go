package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseAndCheck runs args through the server's real flag set and the
// role table, as serveMain does.
func parseAndCheck(args []string) error {
	var f serveFlags
	fs := serveFlagSet(&f)
	fs.Init("bounced", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var set []string
	fs.Visit(func(fl *flag.Flag) { set = append(set, fl.Name) })
	return checkFlags(f.role, set)
}

func TestCheckFlags(t *testing.T) {
	// Every argument list bench/topology.go, scripts/drill/main.go, the
	// Makefile and the verify recipe pass, verbatim.
	accept := map[string]string{
		"bench single":         "-addr 127.0.0.1:0 -no-env -flush-sections ''",
		"bench single durable": "-addr 127.0.0.1:0 -no-env -flush-sections '' -data-dir d -fsync batch -checkpoint-interval 0",
		"bench shard primary":  "-addr 127.0.0.1:0 -role shard -shard-index 1 -shard-count 2 -data-dir d -repl-ack 1 -checkpoint-interval 0 -no-env -flush-sections ''",
		"bench standby":        "-addr 127.0.0.1:0 -role standby -shard-index 1 -shard-count 2 -primary http://p -data-dir d -poll-interval 500ms -no-env -flush-sections ''",
		"bench router":         "-addr 127.0.0.1:0 -role router -peers http://a,http://b",
		"bench coordinator":    "-addr 127.0.0.1:0 -role coordinator -no-env -shards http://a,http://b",
		"drill primary":        "-addr 127.0.0.1:0 -no-env -flush-sections '' -checkpoint-interval 500ms -data-dir d -repl-ack 1",
		"drill shard primary":  "-addr 127.0.0.1:0 -role shard -shard-index 0 -shard-count 2 -no-env -flush-sections '' -checkpoint-interval 500ms -data-dir d -repl-ack 1",
		"drill standby":        "-addr 127.0.0.1:0 -role standby -no-env -flush-sections '' -checkpoint-interval 500ms -primary http://p -data-dir d -failover-timeout 2s -poll-interval 500ms",
		"drill shard standby":  "-addr 127.0.0.1:0 -role standby -shard-index 0 -shard-count 2 -no-env -flush-sections '' -checkpoint-interval 500ms -primary http://p -data-dir d -failover-timeout 2s -poll-interval 500ms",
		"make serve":           "-generate",
		"verify replay":        "-replay d.jsonl -emails 8000 -seed 7 -addr 127.0.0.1:8427",
		"verify memory shard":  "-role=shard -shard-index=2 -shard-count=3 -emails 8000 -seed 7 -addr 127.0.0.1:8512 -flush-sections ''",
		"verify coordinator":   "-role=coordinator -addr 127.0.0.1:8520 -emails 8000 -seed 7 -shards http://a,http://b",
	}
	for name, line := range accept {
		if err := parseAndCheck(argv(line)); err != nil {
			t.Errorf("%s: %q refused: %v", name, line, err)
		}
	}

	// Misuses: the error names the flag and, past parsing, the role.
	reject := []struct{ line, flag, role string }{
		{"-role shard -shard-index 0 -shard-count 2 -replay c.jsonl", "-replay", "shard"},
		{"-role shard -shard-index 0 -shard-count 2 -generate", "-generate", "shard"},
		{"-shard-index 0 -shard-count 2", "-shard-count", "single"},
		{"-shard-index 0", "-shard-index", "single"},
		{"-role shard -shard-index 0", "-shard-count", "shard"},
		{"-role standby -data-dir d", "-primary", "standby"},
		{"-role standby -primary http://p", "-data-dir", "standby"},
		{"-role standby -primary http://p -data-dir d -replay c.jsonl", "-replay", "standby"},
		{"-role coordinator", "-shards", "coordinator"},
		{"-role coordinator -shards http://a -data-dir d", "-data-dir", "coordinator"},
		{"-role router", "-peers", "router"},
		{"-role router -peers http://a -replay c.jsonl", "-replay", "router"},
		{"-role standby -primary http://p -data-dir d -peers http://a", "-peers", "standby"},
		{"-role primary", "-role", "primary"},
		{"-role standby -primary http://p -data-dir d -standby-id s1", "-standby-id", ""},
		{"-data-dir d -repl-ack 1 -repl-ack-timeout 1s", "-repl-ack-timeout", ""},
	}
	for _, c := range reject {
		err := parseAndCheck(argv(c.line))
		if err == nil {
			t.Errorf("%q accepted", c.line)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) || !strings.Contains(err.Error(), c.role) {
			t.Errorf("%q: error %q does not name %s and %q", c.line, err, c.flag, c.role)
		}
	}
}

// TestRolesTableNamesRealFlags: every name in a role's row is a declared
// flag, and every declared flag is read by some role.
func TestRolesTableNamesRealFlags(t *testing.T) {
	fs := serveFlagSet(new(serveFlags))
	read := map[string]bool{"role": true, "addr": true}
	for role, row := range roles {
		for _, name := range strings.Fields(row.requires + " " + row.reads) {
			if fs.Lookup(name) == nil {
				t.Errorf("role %s lists -%s, which is not a flag", role, name)
			}
			read[name] = true
		}
	}
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		if !read[fl.Name] {
			t.Errorf("-%s is read by no role", fl.Name)
		}
	})
	if n != 25 {
		t.Errorf("%d serve flags, want 25", n)
	}
}

// argv splits a test command line on spaces; two single quotes are the
// empty argument.
func argv(line string) []string {
	args := strings.Fields(line)
	for i, a := range args {
		if a == "''" {
			args[i] = ""
		}
	}
	return args
}
