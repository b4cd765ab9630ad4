package soc

import (
	"strings"
	"testing"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/sim"
)

// TestFlatIsOneCluster: the flat configuration is the exact 1-cluster
// special case — one cluster holding every tile.
func TestFlatIsOneCluster(t *testing.T) {
	s, err := New(testConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 1 {
		t.Fatalf("flat system has %d clusters, want 1", len(s.Clusters))
	}
	if got := len(s.Clusters[0].Tiles); got != 32 {
		t.Fatalf("flat cluster holds %d tiles, want 32", got)
	}
	if s.TilesPerCluster() != 32 {
		t.Fatalf("TilesPerCluster = %d, want 32", s.TilesPerCluster())
	}
	for i, tl := range s.Tiles {
		if tl.Cluster != s.Clusters[0] {
			t.Fatalf("tile %d not in the single cluster", i)
		}
	}
}

// TestClusterWiring: explicit clusters partition the tiles in order, and a
// cluster NoC topology implies the cluster count without a second knob.
func TestClusterWiring(t *testing.T) {
	cfg := testConfig(32)
	cfg.Clusters = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 4 || s.TilesPerCluster() != 8 {
		t.Fatalf("got %d clusters of %d tiles, want 4 of 8", len(s.Clusters), s.TilesPerCluster())
	}
	for i, tl := range s.Tiles {
		if want := s.Clusters[i/8]; tl.Cluster != want {
			t.Fatalf("tile %d in cluster %d, want %d", i, tl.Cluster.ID, want.ID)
		}
		if s.ClusterOf(i) != tl.Cluster {
			t.Fatalf("ClusterOf(%d) mismatch", i)
		}
	}

	topoCfg := testConfig(32)
	topoCfg.NoC.Topology, _ = noc.ParseTopology("cluster:8xring")
	s2, err := New(topoCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Clusters) != 4 {
		t.Fatalf("cluster:8xring over 32 tiles implies %d clusters, want 4", len(s2.Clusters))
	}
}

// TestClusterAddrMap: the cluster domain's Addr/Offset round-trip, agree
// with ClusterAddr, and the scratch windows sit between SDRAM and the
// tile-local windows, up to the last cluster MaxClusters allows.
func TestClusterAddrMap(t *testing.T) {
	domain := func(tiles, clusters int) *Domain {
		cfg := testConfig(tiles)
		cfg.Clusters = clusters
		cfg.LocalBytes, cfg.ClusterBytes = 1024, 1024
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.ClusterDomain
	}
	small, widest := domain(8, 4), domain(MaxClusters, MaxClusters)
	for _, c := range []struct {
		d        *Domain
		clusters []int
	}{
		{small, []int{0, 1, 3}},
		{widest, []int{0, 3, MaxClusters - 1}},
	} {
		for _, cl := range c.clusters {
			a := c.d.Addr(cl, 0x80)
			if a != ClusterAddr(cl, 0x80) {
				t.Fatalf("domain Addr(%d) = %#x, ClusterAddr = %#x", cl, a, ClusterAddr(cl, 0x80))
			}
			if a < ClusterBase || a >= LocalBase {
				t.Fatalf("ClusterAddr(%d) = %#x outside the cluster window", cl, a)
			}
			got, off := c.d.Offset(a)
			if got != cl || off != 0x80 {
				t.Fatalf("Offset(ClusterAddr(%d, 0x80)) = (%d, %#x)", cl, got, off)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the cluster domain accepted a local address")
		}
	}()
	widest.Offset(LocalBase)
}

// TestClusterValidate: the distinct configuration error messages.
func TestClusterValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		hint   string
	}{
		{func(c *Config) { c.Clusters = -1 }, "clusters"},
		{func(c *Config) { c.Clusters = 5 }, "do not divide evenly into 5 clusters"},
		{func(c *Config) { c.Clusters = 2048; c.Tiles = 2048 }, "exceeds the address map's maximum"},
		{func(c *Config) { c.ClusterBytes = 2 << 20 }, "cluster memory 2097152 exceeds stride"},
		{func(c *Config) {
			c.Clusters = 4
			c.NoC.Topology, _ = noc.ParseTopology("cluster:16xring")
		}, "but 32 tiles / 4 clusters = 8"},
		{func(c *Config) {
			c.NoC.Topology, _ = noc.ParseTopology("cluster:5xring")
		}, "do not divide into clusters of 5"},
	}
	for _, tc := range cases {
		cfg := testConfig(32)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("config accepted, want error containing %q", tc.hint)
			continue
		}
		if !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("error %q lacks %q", err, tc.hint)
		}
	}
}

// TestClusterScratchAccess: word access and DMA paths against the cluster
// scratch, including the stall accounting buckets they charge.
func TestClusterScratchAccess(t *testing.T) {
	cfg := testConfig(8)
	cfg.Clusters = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := s.Tiles[5] // cluster 1
	var got uint32
	s.K.Spawn("t5", func(p *sim.Proc) {
		tl.WriteDomain32(p, s.ClusterDomain, ClusterAddr(1, 0x40), 0xfeed)
		got = tl.ReadDomain32(p, s.ClusterDomain, ClusterAddr(1, 0x40))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0xfeed {
		t.Fatalf("cluster scratch read back %#x, want 0xfeed", got)
	}
	if tl.Stats.SharedReads != 1 || tl.Stats.SharedWrites != 1 {
		t.Fatalf("shared counters = %d/%d, want 1/1", tl.Stats.SharedReads, tl.Stats.SharedWrites)
	}
	if tl.Stats.SharedReadStall == 0 || tl.Stats.WriteStall == 0 {
		t.Fatal("crossbar stalls not charged")
	}
	if s.Clusters[1].Scratch.CoreReads != 1 || s.Clusters[1].Scratch.CoreWrites != 1 {
		t.Fatal("scratch port counters not charged")
	}
}

// TestClusterCopies: SDRAM<->scratch bursts and the intra-scratch DMA move
// data and charge CopyStall.
func TestClusterCopies(t *testing.T) {
	cfg := testConfig(4)
	cfg.Clusters = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := s.Tiles[0]
	src := mem.Addr(0x1000)
	payload := []byte("cluster scratch staging payload!")
	s.SDRAM.WriteBlock(src, payload)
	out := make([]byte, len(payload))
	s.K.Spawn("t0", func(p *sim.Proc) {
		d := s.ClusterDomain
		tl.CopyToDomain(p, d, src, ClusterAddr(0, 0), len(payload))
		tl.CopyWithinDomain(p, d, ClusterAddr(0, 0), ClusterAddr(0, 0x100), len(payload))
		tl.CopyFromDomain(p, d, ClusterAddr(0, 0x100), 0x2000, len(payload))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.SDRAM.ReadBlock(0x2000, out)
	if string(out) != string(payload) {
		t.Fatalf("round-trip through cluster scratch = %q", out)
	}
	if tl.Stats.CopyStall == 0 {
		t.Fatal("copies charged no CopyStall")
	}
}

// TestClusterScratchOverNoC: a posted write addressed at another cluster's
// scratch window lands in that scratch, not in any tile-local memory.
func TestClusterScratchOverNoC(t *testing.T) {
	cfg := testConfig(8)
	cfg.NoC.Topology, _ = noc.ParseTopology("cluster:4xring")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := ClusterAddr(1, 0x20)
	s.K.Spawn("t0", func(p *sim.Proc) {
		s.Net.PostWrite32(0, 4, dst, 0xabcd)
		p.Wait(200)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := s.Clusters[1].Scratch.Read32(dst); v != 0xabcd {
		t.Fatalf("cluster scratch over NoC = %#x, want 0xabcd", v)
	}
	for _, l := range s.Locals {
		if l.NoCWrites != 0 {
			t.Fatalf("tile-local memory %d saw the cluster-window write", l.Tile)
		}
	}
}
