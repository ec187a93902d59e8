package serve

import (
	"fmt"
	"strings"
)

// Banner renders the startup summary cmd/serve prints: everything an
// operator needs to confirm the right bundle is being served. It is a
// pure function of the loaded state — no wall-clock, no paths — so a
// golden test pins it for a fixed fixture.
func Banner(s *Service) string {
	var sb strings.Builder
	m := s.Bundle.Manifest
	st := s.Index.Stats()
	sb.WriteString("canvassing verdict service\n")
	fmt.Fprintf(&sb, "  bundle:    seed %d, scale %g", m.Seed, m.Scale)
	if len(m.Conditions) > 0 {
		fmt.Fprintf(&sb, ", conditions %s", strings.Join(m.Conditions, "+"))
	}
	fmt.Fprintf(&sb, ", %d events\n", st.EventsIndexed)
	fmt.Fprintf(&sb, "  index:     %d canvases (%d fingerprintable), %d sites (%d fingerprinting), %d clusters (%d attributed)\n",
		st.Canvases, st.FingerprintableCanvases, st.Sites, st.FingerprintingSites,
		st.Clusters, st.AttributedClusters)
	if s.Lists != nil {
		fmt.Fprintf(&sb, "  lists:     %s %d rules, %s %d rules, %s %d domains\n",
			s.Lists.EasyList.Name, s.Lists.EasyList.Len(),
			s.Lists.EasyPrivacy.Name, s.Lists.EasyPrivacy.Len(),
			s.Lists.Disconnect.Name, s.Lists.Disconnect.Len())
	} else {
		sb.WriteString("  lists:     unavailable (/v1/block disabled)\n")
	}
	fmt.Fprintf(&sb, "  batching:  %s window, singleflight per key\n", s.batch.Window())
	sb.WriteString("  endpoints: POST /v1/classify[/batch] · GET /v1/cluster/{hash} · GET /v1/block · GET /v1/site/{domain} · GET /v1/stats\n")
	return sb.String()
}
