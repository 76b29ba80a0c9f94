//go:build !linux

package transport

import (
	"errors"
	"net"
)

// The same-host lane needs abstract unix sockets, SO_PEERCRED and sealed
// memfds; elsewhere no listener offers it, nor a generation region, and
// every dial is TCP.

func listenLane(net.Addr) net.Listener { return nil }

func dialLane(string, *Metrics) Conn { return nil }

func upgradeLane(c net.Conn, _ bool, _ *Metrics, _ *regionOffer) Conn {
	c.Close()
	return nil
}

func newRegion(int) (*region, error) {
	return nil, errors.New("transport: no generation region on this platform")
}

// No connection has a peer to watch (closeLane).
func (p *lanePeer) exited() bool { return false }

func (p *lanePeer) drop() {}
