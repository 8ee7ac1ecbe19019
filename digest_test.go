package multival

import (
	"context"
	"fmt"
	"testing"

	"multival/internal/bisim"
	"multival/internal/chp"
	"multival/internal/faust"
	"multival/internal/lts"
	"multival/internal/xstream"
)

// TestModelDigestsPinned pins the content digests of fixture models. The
// digest is the artifact cache key in internal/serve, so a change to the
// LTS representation, to state numbering (Trim's BFS order) or to the
// hash encoding shows up here as a drift of cache addresses.
func TestModelDigestsPinned(t *testing.T) {
	ctx := context.Background()
	router := func() (*lts.LTS, error) {
		return faust.RouterLTS(ctx, faust.RouterConfig{Ports: 2}, chp.Options{HandshakeExpand: true}, 1<<20)
	}
	for _, tc := range []struct {
		name         string
		build        func() (*lts.LTS, error)
		states, hash string
	}{
		{"xstream-stage", func() (*lts.LTS, error) {
			return xstream.StageModel(3, xstream.StageGate(0), xstream.StageGate(1))
		}, "4/6", "4dc74176941afb3f740f87efc5ec4efa97a99316783f9c56e9c8692fd078c979"},
		{"faust-fork", func() (*lts.LTS, error) {
			return faust.ForkImpl(2, faust.ForkWaitBoth)
		}, "29/39", "95e1b4c89828e6f234bb79959411afd434dafd1dcdb78289a8f1bc895287f86c"},
		{"chp-router-2", router, "777/2632", "2dfdb4c8cb955d7d24024f5134fd9eed699b6ccae142faa935f9b58b6411c31f"},
		{"chp-router-2-branching", func() (*lts.LTS, error) {
			l, err := router()
			if err != nil {
				return nil, err
			}
			q, _, err := bisim.MinimizeCtx(ctx, l, bisim.Branching, bisim.Options{})
			return q, err
		}, "225/720", "12abb05df760e7001c8dc21fbf88b7eec04b82989e3d1a63d13c8d6c5626b453"},
	} {
		l, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%d/%d", l.NumStates(), l.NumTransitions()); got != tc.states {
			t.Errorf("%s: %s states/transitions, want %s", tc.name, got, tc.states)
		}
		if got := (&Model{L: l}).Hash(); got != tc.hash {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.hash)
		}
	}
}
