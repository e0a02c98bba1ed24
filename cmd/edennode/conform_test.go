package main

import (
	"testing"
	"time"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the counter's read operations from
// another node and holds each reply to a local call's.
func TestReadConformance(t *testing.T) {
	counter := func(home, client *eden.Node) (eden.Capability, error) {
		c, err := home.CreateObject("counter")
		for i := 0; i < 2 && err == nil; i++ {
			_, err = client.Invoke(c, "inc", nil, nil, &eden.InvokeOptions{Timeout: 10 * time.Second})
		}
		return c, err
	}
	conform.Reads(t, func(s *eden.System) error { return s.RegisterType(counterType()) }, []conform.Row{
		{Type: "counter", Op: "get", Setup: counter},
		{Type: "counter", Op: "stat", Setup: counter},
		{Type: "counter", Op: "secret", Setup: counter},
	})
}

// TestWriteConformance invokes the counter's writes from another node on
// one counter and locally on its twin, and holds the replies and the two
// counts to each other's.
func TestWriteConformance(t *testing.T) {
	counter := func(home, client *eden.Node) (eden.Capability, error) {
		c, err := home.CreateObject("counter")
		if err == nil {
			_, err = client.Invoke(c, "inc", nil, nil, &eden.InvokeOptions{Timeout: 10 * time.Second})
		}
		return c, err
	}
	conform.Writes(t, func(s *eden.System) error { return s.RegisterType(counterType()) }, []conform.Row{
		{Type: "counter", Op: "inc", Setup: counter},
		{Type: "counter", Op: "incdur", Setup: counter},
	})
}
