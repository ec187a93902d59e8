package obs

import (
	"flag"
	"testing"
	"time"
)

// TestBindCLIDefaults: an empty command line leaves everything off.
func TestBindCLIDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindCLI(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Metrics || c.Pprof != "" || c.Status != "" ||
		c.Window != 0 || c.OutDir != "" || c.Tracez {
		t.Fatalf("defaults not zero: %+v", c)
	}
	if addr, pprof := c.OpsAddr(); addr != "" || pprof {
		t.Fatalf("OpsAddr with no flags = %q %v", addr, pprof)
	}
}

// TestBindCLIParses: every shared flag lands in its field.
func TestBindCLIParses(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindCLI(fs)
	err := fs.Parse([]string{
		"-metrics",
		"-status", "127.0.0.1:9000",
		"-window", "30s",
		"-outdir", "bundle",
		"-tracez",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Metrics || c.Status != "127.0.0.1:9000" ||
		c.Window != 30*time.Second || c.OutDir != "bundle" || !c.Tracez {
		t.Fatalf("parsed = %+v", c)
	}
	if addr, pprof := c.OpsAddr(); addr != "127.0.0.1:9000" || pprof {
		t.Fatalf("OpsAddr under -status = %q pprof=%v", addr, pprof)
	}
}

// TestOpsAddrPprofWins: -pprof supersedes -status (it is the same
// plane plus /debug/pprof).
func TestOpsAddrPprofWins(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindCLI(fs)
	if err := fs.Parse([]string{"-status", ":9000", "-pprof", ":9001"}); err != nil {
		t.Fatal(err)
	}
	addr, pprof := c.OpsAddr()
	if addr != ":9001" || !pprof {
		t.Fatalf("OpsAddr = %q pprof=%v, want :9001 true", addr, pprof)
	}
}

func TestBindFaultCLI(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := BindFaultCLI(fs)
	if err := fs.Parse([]string{"-faults", "0.2", "-retries", "5", "-visit-timeout", "2s"}); err != nil {
		t.Fatal(err)
	}
	if c.Rate != 0.2 || c.Retries != 5 || c.VisitTimeout != 2*time.Second {
		t.Fatalf("parsed = %+v", c)
	}
}
