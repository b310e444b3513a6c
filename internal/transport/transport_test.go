package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcp"
)

// Compile-time conformance: every shipped transport satisfies Network.
// (The behavioral contract is exercised per-implementation through
// transporttest.Run; this file checks the interface seam itself.)
var (
	_ transport.Network = (*tcp.Net)(nil)
	_ transport.Network = (*inproc.Fabric)(nil)
)

// networks enumerates the implementations behind the interface, the way
// the daemon consumes them: as a bare transport.Network.
func networks() map[string]func() (transport.Network, func(i int) string) {
	return map[string]func() (transport.Network, func(i int) string){
		"tcp": func() (transport.Network, func(i int) string) {
			return tcp.New(), func(int) string { return "127.0.0.1:0" }
		},
		"inproc": func() (transport.Network, func(i int) string) {
			return inproc.New(inproc.LinkProfile{}), func(i int) string { return fmt.Sprintf("site-%d", i) }
		},
	}
}

// TestRoundTripThroughInterface moves a datagram both ways over each
// implementation using only the transport.Network interface.
func TestRoundTripThroughInterface(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net, addr := mk()
			l, err := net.Listen(addr(0))
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer l.Close()
			accepted := make(chan transport.Endpoint, 1)
			go func() {
				ep, err := l.Accept()
				if err != nil {
					return
				}
				accepted <- ep
			}()
			client, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer client.Close()
			server := <-accepted
			defer server.Close()

			msg := []byte("sdvm datagram")
			if err := client.Send(msg); err != nil {
				t.Fatalf("client send: %v", err)
			}
			got, err := server.Recv()
			if err != nil {
				t.Fatalf("server recv: %v", err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("recv = %q, want %q", got, msg)
			}
			if err := server.Send(got); err != nil {
				t.Fatalf("server send: %v", err)
			}
			echo, err := client.Recv()
			if err != nil {
				t.Fatalf("client recv: %v", err)
			}
			if !bytes.Equal(echo, msg) {
				t.Fatalf("echo = %q, want %q", echo, msg)
			}
		})
	}
}

// TestErrClosedSemantics checks that every implementation reports closed
// endpoints and listeners with transport.ErrClosed, which the network
// manager relies on to tell shutdown from failure.
func TestErrClosedSemantics(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net, addr := mk()
			l, err := net.Listen(addr(1))
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			go func() {
				for {
					ep, err := l.Accept()
					if err != nil {
						return
					}
					ep.Close()
				}
			}()
			client, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			if err := client.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := client.Recv(); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Recv on closed endpoint = %v, want ErrClosed", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("listener Close: %v", err)
			}
			if _, err := l.Accept(); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Accept on closed listener = %v, want ErrClosed", err)
			}
		})
	}
}
