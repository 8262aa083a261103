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
			Config{MaxAddrsPerBlock: 5, Workers: 4, RefreshEvery: DefaultRefreshEvery}},
		{"explicit values survive",
			Config{MaxAddrsPerBlock: 2, Workers: 1, RefreshEvery: 3},
			Config{MaxAddrsPerBlock: 2, Workers: 1, RefreshEvery: 3}},
		{"Disabled refresh means never, not default",
			Config{RefreshEvery: Disabled},
			Config{MaxAddrsPerBlock: 5, Workers: 4, RefreshEvery: 0}},
		{"negative worker count falls back",
			Config{Workers: -3},
			Config{MaxAddrsPerBlock: 5, Workers: 4, RefreshEvery: DefaultRefreshEvery}},
	}
	for _, c := range cases {
		if got := c.in.withDefaults(); got != c.want {
			t.Errorf("%s: withDefaults() = %+v, want %+v", c.name, got, c.want)
		}
	}
}
