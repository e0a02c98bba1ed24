package main

import (
	"testing"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the mailbox's read operations from
// another node and holds each reply to a local call's.
func TestReadConformance(t *testing.T) {
	mailbox := func(home, client *eden.Node) (eden.Capability, error) {
		box, err := home.CreateObject(mailboxType)
		for _, subject := range []string{"hello", "a somewhat longer subject line"} {
			if err == nil {
				_, err = client.Invoke(box, "deliver", encodeMail("bob", subject, "body of "+subject), nil, opts())
			}
		}
		return box, err
	}
	conform.Reads(t, func(s *eden.System) error { return s.RegisterType(mailboxManager()) }, []conform.Row{
		{Type: mailboxType, Op: "list", Setup: mailbox},
		{Type: mailboxType, Op: "read", Setup: mailbox,
			Requests: [][]byte{[]byte("00000001"), []byte("00000002"), []byte("00000009")}},
	})
}

// TestWriteConformance invokes the mailbox's writes from another node on
// one mailbox and locally on its twin, and holds the replies and the two
// mailboxes' messages to each other's.
func TestWriteConformance(t *testing.T) {
	mailbox := func(home, client *eden.Node) (eden.Capability, error) {
		box, err := home.CreateObject(mailboxType)
		if err == nil {
			_, err = client.Invoke(box, "deliver", encodeMail("bob", "hello", "body of hello"), nil, opts())
		}
		return box, err
	}
	conform.Writes(t, func(s *eden.System) error { return s.RegisterType(mailboxManager()) }, []conform.Row{
		{Type: mailboxType, Op: "deliver", Setup: mailbox,
			Requests: [][]byte{encodeMail("alice", "a somewhat longer subject line", "a body"), encodeMail("carol", "", "")}},
		{Type: mailboxType, Op: "delete", Setup: mailbox,
			Requests: [][]byte{[]byte("00000001"), []byte("00000009")}},
	})
}
