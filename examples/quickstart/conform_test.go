package main

import (
	"testing"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the counter's read operation from another
// node and holds each reply to a local call's.
func TestReadConformance(t *testing.T) {
	conform.Reads(t, func(s *eden.System) error { return s.RegisterType(counterType()) }, []conform.Row{
		{Type: "counter", Op: "get", Setup: func(home, client *eden.Node) (eden.Capability, error) {
			c, err := home.CreateObject("counter")
			if err == nil {
				_, err = client.Invoke(c, "inc", nil, nil, opts())
			}
			return c, err
		}},
	})
}
