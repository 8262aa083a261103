package scamper

import "testing"

func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"zero selects paper params",
			Config{},
			Config{MaxAddrsPerBlock: 5, Workers: 4}},
		{"explicit values survive",
			Config{MaxAddrsPerBlock: 2, Workers: 1, DisableStopSet: true, DisableAlias: true},
			Config{MaxAddrsPerBlock: 2, Workers: 1, DisableStopSet: true, DisableAlias: true}},
		{"negative values fall back",
			Config{MaxAddrsPerBlock: -1, Workers: -3},
			Config{MaxAddrsPerBlock: 5, Workers: 4}},
	}
	for _, c := range cases {
		if got := c.in.withDefaults(); got != c.want {
			t.Errorf("%s: withDefaults() = %+v, want %+v", c.name, got, c.want)
		}
	}
}
