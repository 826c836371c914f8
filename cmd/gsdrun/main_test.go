package main

import (
	"math"
	"strings"
	"testing"
)

// TestValidate pins gsdrun's flag checks: each bad value is an error that
// names its flag, where it used to be replaced silently by a default.
func TestValidate(t *testing.T) {
	ok := config{groups: 200, servers: 216000, iters: 500, load: 0.4, price: 0.05, beta: 0.02}
	cases := []struct {
		name string
		edit func(*config)
		flag string // "" when the flags are valid
	}{
		{"defaults", func(*config) {}, ""},
		{"full load", func(c *config) { c.load = 1 }, ""},
		{"one server per group", func(c *config) { c.servers = c.groups }, ""},
		{"explicit delta and queue", func(c *config) { c.delta, c.queue = 1e6, 3 }, ""},
		{"zero groups", func(c *config) { c.groups = 0 }, "-groups"},
		{"negative groups", func(c *config) { c.groups = -3 }, "-groups"},
		{"zero servers", func(c *config) { c.servers = 0 }, "-servers"},
		{"fewer servers than groups", func(c *config) { c.servers = c.groups - 1 }, "-servers"},
		{"zero iters", func(c *config) { c.iters = 0 }, "-iters"},
		{"negative iters", func(c *config) { c.iters = -1 }, "-iters"},
		{"zero load", func(c *config) { c.load = 0 }, "-load"},
		{"overload", func(c *config) { c.load = 1.5 }, "-load"},
		{"NaN load", func(c *config) { c.load = math.NaN() }, "-load"},
		{"negative delta", func(c *config) { c.delta = -1 }, "-delta"},
		{"infinite delta", func(c *config) { c.delta = math.Inf(1) }, "-delta"},
		{"NaN price", func(c *config) { c.price = math.NaN() }, "-price"},
		{"negative beta", func(c *config) { c.beta = -0.02 }, "-beta"},
		{"infinite queue", func(c *config) { c.queue = math.Inf(1) }, "-q"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok
			tc.edit(&c)
			err := validate(c)
			switch {
			case tc.flag == "" && err != nil:
				t.Fatalf("rejected valid flags: %v", err)
			case tc.flag != "" && err == nil:
				t.Fatalf("accepted bad %s", tc.flag)
			case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
				t.Fatalf("error %q does not name %s", err, tc.flag)
			}
		})
	}
}
