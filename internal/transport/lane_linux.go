//go:build linux

package transport

// How two same-host peers find each other and set the lane up (lane.go says
// what the lane is). A TCP listener also binds an abstract unix socket named
// from its bound ip:port; a dialer whose target is an address of this host
// tries that name before TCP. Abstract names carry no permissions, so each
// end asks SO_PEERCRED who the other is and goes on only under its own uid: a
// foreign user can neither squat the name and be dialed, nor reach a server
// through it. Each end then creates the arena it will send through — a sealed
// memfd, so no holder of the descriptor can truncate the mapping under its
// peer — keeps the descriptor to write bodies with, and passes a copy across
// with SCM_RIGHTS for the peer to map; a listener that shares a generation
// region (region.go) passes its descriptor beside it, for the peer to map
// read-only. Any failure on the way is not an error: the dialer goes to TCP
// as if the lane did not exist.

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

const (
	// laneHello opens the unix stream in both directions, with the sender's
	// arena descriptor and, from a listener sharing one, its generation
	// region's attached; its last byte versions the layout of both.
	laneHello = "DSSPLAN\x02"
	// laneHandshakeTimeout bounds the hello exchange, whose other end is a
	// process on this machine.
	laneHandshakeTimeout = 2 * time.Second

	// memfd_create(2) flags and the sealing fcntl(2)s, absent from package
	// syscall.
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fGetSeals       = 1034
	fSealSeal       = 0x1
	fSealShrink     = 0x2
	fSealGrow       = 0x4

	// fallocate(2)'s hole punch, absent from package syscall.
	fallocPunchHole = 0x1 | 0x2 // FALLOC_FL_KEEP_SIZE | FALLOC_FL_PUNCH_HOLE

	// pidfd_open(2)'s syscall number, the same on every architecture, and
	// poll(2)'s POLLIN, both absent from package syscall.
	sysPidfdOpen = 434
	pollIn       = 0x1
)

// memfdCreateTrap is memfd_create(2)'s syscall number, which package syscall
// lacks on the older ports; 0 (an architecture not listed) means no lane.
var memfdCreateTrap = map[string]uintptr{
	"amd64": 319, "arm64": 279, "riscv64": 279, "loong64": 279, "ppc64": 360, "ppc64le": 360, "s390x": 350,
}[runtime.GOARCH]

// laneSupported: a 256 MB mapping per connection wants a 64-bit address
// space.
var laneSupported = bits.UintSize == 64 && memfdCreateTrap != 0

// laneName is the abstract socket name (net spells the leading NUL "@") of
// the listener reachable at TCP host:port; host "*" is every address.
func laneName(host string, port int) string {
	return "@dssp-lane/" + net.JoinHostPort(host, strconv.Itoa(port))
}

// listenLane binds the twin of the TCP listener bound to addr, or returns nil
// when there is none to offer (the name is taken, the platform cannot).
func listenLane(addr net.Addr) net.Listener {
	tcp, ok := addr.(*net.TCPAddr)
	if !ok || !laneSupported {
		return nil
	}
	host := "*"
	if !tcp.IP.IsUnspecified() {
		host = tcp.IP.String()
	}
	l, err := net.Listen("unix", laneName(host, tcp.Port))
	if err != nil {
		return nil
	}
	return l
}

// dialLane connects to the lane of the listener at addr and returns the
// upgraded connection, or nil when addr is not a literal address of this
// host, nothing of ours listens there, or the handshake fails — the caller
// then dials TCP.
func dialLane(addr string, meter *Metrics) Conn {
	if !laneSupported {
		return nil
	}
	host, portText, err := net.SplitHostPort(addr)
	if err != nil {
		return nil
	}
	port, err := strconv.Atoi(portText)
	if err != nil {
		return nil
	}
	ip := net.ParseIP(host)
	switch {
	case host == "" || host == "localhost":
		ip = net.IPv4(127, 0, 0, 1)
	case ip == nil || !isLocalIP(ip):
		return nil
	}
	for _, host := range []string{ip.String(), "*"} {
		c, err := net.Dial("unix", laneName(host, port))
		if err != nil {
			continue
		}
		if conn := upgradeLane(c, false, meter, nil); conn != nil {
			return conn
		}
	}
	return nil
}

// isLocalIP reports whether ip is loopback or assigned to an interface of
// this host, so that what listens on it is in this host's abstract namespace.
func isLocalIP(ip net.IP) bool {
	if ip.IsLoopback() {
		return true
	}
	addrs, err := net.InterfaceAddrs()
	if err != nil {
		return false
	}
	for _, a := range addrs {
		if n, ok := a.(*net.IPNet); ok && n.IP.Equal(ip) {
			return true
		}
	}
	return false
}

// upgradeLane runs the lane handshake on a fresh unix stream, offering the
// peer offer's region when there is one, and returns the lane connection; on
// any failure it closes c and returns nil.
func upgradeLane(c net.Conn, server bool, meter *Metrics, offer *regionOffer) Conn {
	conn, err := laneHandshake(c.(*net.UnixConn), server, laneArenaBytes, offer)
	if err != nil {
		c.Close()
		return nil
	}
	return conn.metered(meter)
}

// laneHandshake checks the peer's uid, swaps arenas with it — and the
// regions each end offers — and returns the binaryConn that sends through the
// arena created here and receives through the peer's. arenaBytes sizes the
// former; the latter's size is the peer's choice, validated. offer goes only
// to a peer whose process this end can watch (openPeer): the references sent
// into it outlive the connection until the peer releases them or exits, and
// an exit nobody sees would pin them for good. Without a region the peer's
// dense pulls are copied, as on TCP.
func laneHandshake(uc *net.UnixConn, server bool, arenaBytes int, offer *regionOffer) (*binaryConn, error) {
	pid, err := samePeerUID(uc)
	if err != nil {
		return nil, err
	}
	out, fd, err := newSendArena(arenaBytes)
	if err != nil {
		return nil, err
	}
	fds := []int{fd}
	var peer *lanePeer
	if offer != nil {
		if peer = openPeer(pid); peer != nil {
			fds = append(fds, offer.reg.fd)
		}
	}
	_ = uc.SetDeadline(time.Now().Add(laneHandshakeTimeout))
	if _, _, err = uc.WriteMsgUnix([]byte(laneHello), syscall.UnixRights(fds...), nil); err != nil {
		out.drop()
		peer.drop()
		return nil, fmt.Errorf("transport: lane hello: %w", err)
	}
	in, reg, err := recvArena(uc)
	if err != nil {
		out.drop()
		peer.drop()
		return nil, err
	}
	_ = uc.SetDeadline(time.Time{})
	conn := newBinaryConn(uc, server)
	conn.carrier, conn.laneOut, conn.fr.arena, conn.fr.region = carrierLane, out, in, reg
	if peer != nil {
		offer.reg.holders.Add(1)
		conn.regionOut, conn.peer = offer, peer
	}
	return conn, nil
}

// laneUID is the only uid a lane peer may run under: this process's own.
// (A variable so that a test can stand for a foreign peer.)
var laneUID = os.Geteuid()

// samePeerUID fails unless the process at the other end of uc runs under
// laneUID, and returns that process's pid.
func samePeerUID(uc *net.UnixConn) (int, error) {
	raw, err := uc.SyscallConn()
	if err != nil {
		return 0, err
	}
	var cred *syscall.Ucred
	var credErr error
	if err := raw.Control(func(fd uintptr) {
		cred, credErr = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	}); err != nil {
		return 0, err
	}
	if credErr != nil {
		return 0, fmt.Errorf("transport: lane peer credentials: %w", credErr)
	}
	if int(cred.Uid) != laneUID {
		return 0, fmt.Errorf("transport: lane peer runs under uid %d, not %d", cred.Uid, laneUID)
	}
	return int(cred.Pid), nil
}

// pidfdOpen opens a pidfd for pid (pidfd_open(2)), close-on-exec already.
// (A variable so that a test can stand for a kernel that gives none.)
var pidfdOpen = func(pid int) (int, error) {
	fd, _, errno := syscall.Syscall(sysPidfdOpen, uintptr(pid), 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// openPeer returns the lane peer running as pid, watched through a pidfd,
// which turns readable once the process has exited; nil where the kernel
// gives none (before Linux 5.3, a pid outside this namespace).
func openPeer(pid int) *lanePeer {
	fd, err := pidfdOpen(pid)
	if err != nil {
		return nil
	}
	p := &lanePeer{fd: fd}
	p.refs.Store(1)
	return p
}

// exited reports whether the peer's process has exited: its pidfd polls
// readable.
func (p *lanePeer) exited() bool {
	fds := [1]struct {
		fd             int32
		events, revent int16
	}{{fd: int32(p.fd), events: pollIn}}
	var zero syscall.Timespec
	n, _, errno := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&fds[0])), 1, uintptr(unsafe.Pointer(&zero)), 0, 0, 0)
	return errno == 0 && n == 1
}

// drop ends one holder's use of the peer's pidfd; the last one closes it.
// A nil peer (none was opened) holds nothing.
func (p *lanePeer) drop() {
	if p != nil && p.refs.Add(-1) == 0 {
		syscall.Close(p.fd)
	}
}

// newArenaFile creates the unlinked shared-memory file behind an arena or a
// region, named name in /proc/<pid>/maps: size bytes, none of them allocated
// until touched, sealed against resizing.
func newArenaFile(name string, size int) (int, error) {
	cname, _ := syscall.BytePtrFromString(name)
	r, _, errno := syscall.Syscall(memfdCreateTrap, uintptr(unsafe.Pointer(cname)), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return -1, fmt.Errorf("transport: memfd_create: %w", errno)
	}
	fd := int(r)
	if err := syscall.Ftruncate(fd, int64(size)); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("transport: size lane arena: %w", err)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, r, fAddSeals, fSealShrink|fSealGrow|fSealSeal); errno != 0 {
		syscall.Close(fd)
		return -1, fmt.Errorf("transport: seal lane arena: %w", errno)
	}
	return fd, nil
}

// newSendArena creates an arena of size bytes for this end to send through:
// the state words mapped, bodies written through the descriptor, which is
// also returned for the hello to carry and stays the arena's to close. A
// push slot is the one run of body pages this end maps: fallocate(2) gives
// its pages memory before mmap(2) maps them, and the file is sealed against
// shrinking, so a store into them cannot find a page missing — the SIGBUS
// that keeps every other body behind the descriptor. Either call failing
// means no slot, and the frames it would have carried are copied as ever.
func newSendArena(size int) (*arena, int, error) {
	fd, err := newArenaFile("dssp-lane", size)
	if err != nil {
		return nil, -1, err
	}
	pages := size / lanePage
	mem, err := mapShared(fd, laneDataStart(pages)*lanePage)
	if err != nil {
		syscall.Close(fd)
		return nil, -1, err
	}
	var iov []syscall.Iovec // write's scratch, reused under the connection's encMu
	write := func(off int, vec [][]byte) error {
		iov = iov[:0]
		for _, b := range vec {
			if len(b) > 0 {
				iov = append(iov, syscall.Iovec{Base: &b[0]})
				iov[len(iov)-1].SetLen(len(b))
			}
		}
		err := pwritevAll(fd, iov, off)
		clear(iov) // pin no payload between sends
		return err
	}
	free := func() {
		_ = syscall.Munmap(mem)
		syscall.Close(fd)
	}
	a := newArena(mem, pages, write, free)
	a.mapPages = func(page, n int) ([]byte, func(), error) {
		off, size := int64(page)*lanePage, n*lanePage
		if err := syscall.Fallocate(fd, 0, off, int64(size)); err != nil {
			return nil, nil, fmt.Errorf("transport: allocate lane push slot: %w", err)
		}
		slot, err := syscall.Mmap(fd, off, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err != nil {
			return nil, nil, fmt.Errorf("transport: map lane push slot: %w", err)
		}
		return slot, func() { _ = syscall.Munmap(slot) }, nil
	}
	return a, fd, nil
}

// newRegion creates a generation region of size bytes that this process owns
// (region.go): mapped writable here, each extent given memory by
// fallocate(2) before the owner's first store into it — the file is sealed
// against shrinking, so no store can find a page missing — and its pages
// punched out again when it is freed.
func newRegion(size int) (*region, error) {
	fd, err := newArenaFile("dssp-gen", size)
	if err != nil {
		return nil, err
	}
	mem, err := mapShared(fd, size)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	r := &region{mem: mem, fd: fd, owner: true}
	r.holders.Store(1)
	r.unmap = func() {
		_ = syscall.Munmap(mem)
		syscall.Close(fd)
	}
	r.allocate = func(off, n int) error { return syscall.Fallocate(fd, 0, int64(off), int64(n)) }
	r.punch = func(off, n int) { _ = syscall.Fallocate(fd, fallocPunchHole, int64(off), int64(n)) }
	return r, nil
}

// receiveRegion maps the region whose descriptor a peer's hello carried, or
// finds the mapping this process already has of it, and returns it with one
// hold taken; it consumes fd. The checks are recvArena's: a whole number of
// pages, no larger than a region, sealed against shrinking. The mapping is
// read-only: a store into a pulled tensor faults.
func receiveRegion(fd int) (*region, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("transport: stat generation region: %w", err)
	}
	key := regionKey{dev: uint64(st.Dev), ino: st.Ino}
	receivedRegions.Lock()
	defer receivedRegions.Unlock()
	if r := receivedRegions.m[key]; r != nil {
		syscall.Close(fd)
		r.holders.Add(1)
		return r, nil
	}
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if errno != 0 || seals&fSealShrink == 0 {
		syscall.Close(fd)
		return nil, errors.New("transport: peer's generation region is not sealed against shrinking")
	}
	if st.Size < regionMinBytes || st.Size > regionBytes || st.Size%lanePage != 0 {
		syscall.Close(fd)
		return nil, fmt.Errorf("transport: peer's generation region has an unusable size of %d bytes", st.Size)
	}
	mem, err := syscall.Mmap(fd, 0, int(st.Size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("transport: map generation region: %w", err)
	}
	r := &region{mem: mem, fd: fd, key: key}
	r.holders.Store(1)
	r.unmap = func() {
		_ = syscall.Munmap(mem)
		syscall.Close(fd)
	}
	if receivedRegions.m == nil {
		receivedRegions.m = make(map[regionKey]*region)
	}
	receivedRegions.m[key] = r
	return r, nil
}

// mapShared maps the first size bytes of fd shared and writable: the sender
// reads state words the receiver writes, and the receiver may fold into a
// body it leases.
func mapShared(fd, size int) ([]byte, error) {
	mem, err := syscall.Mmap(fd, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("transport: map lane arena: %w", err)
	}
	return mem, nil
}

// iovMax is the most segments one pwritev(2) takes (IOV_MAX).
const iovMax = 1024

// pwritevAll writes iov's segments back to back at offset off of fd, all of
// them or an error. The file is shared memory: a write neither blocks nor
// comes up short unless the kernel has no page to back it.
func pwritevAll(fd int, iov []syscall.Iovec, off int) error {
	for len(iov) > 0 {
		batch := iov[:min(len(iov), iovMax)]
		want := 0
		for i := range batch {
			want += int(batch[i].Len)
		}
		n, _, errno := syscall.Syscall6(syscall.SYS_PWRITEV, uintptr(fd),
			uintptr(unsafe.Pointer(&batch[0])), uintptr(len(batch)), uintptr(off), 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return fmt.Errorf("transport: write lane body: %w", errno)
		}
		if int(n) != want {
			return fmt.Errorf("transport: write lane body: %d of %d bytes", n, want)
		}
		iov, off = iov[len(batch):], off+want
	}
	return nil
}

// recvArena reads the peer's hello and maps the arena descriptor it carries,
// after checking that the file is what a peer of this build would send: a
// whole number of pages, no larger than the slot marker can address, and
// sealed against shrinking — reading a mapped page past a shrunken file's end
// is a SIGBUS. A second descriptor is the generation region the peer offers
// (receiveRegion); reg is nil when it offers none.
func recvArena(uc *net.UnixConn) (in *arena, reg *region, err error) {
	hello := make([]byte, len(laneHello))
	oob := make([]byte, syscall.CmsgSpace(8))
	n, oobn, _, _, err := uc.ReadMsgUnix(hello, oob)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: lane hello: %w", err)
	}
	// The descriptors ride the hello's first byte; whatever of the rest a
	// short read left behind follows on the stream.
	fds, fdErr := helloFDs(oob[:oobn])
	defer func() {
		for _, fd := range fds {
			syscall.Close(fd)
		}
	}()
	if _, err := io.ReadFull(uc, hello[n:]); err != nil {
		return nil, nil, fmt.Errorf("transport: lane hello: %w", err)
	}
	if string(hello) != laneHello {
		return nil, nil, errors.New("transport: peer does not speak this build's lane")
	}
	if fdErr != nil {
		return nil, nil, fdErr
	}
	fd := fds[0]
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, nil, fmt.Errorf("transport: stat lane arena: %w", err)
	}
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if errno != 0 || seals&fSealShrink == 0 {
		return nil, nil, errors.New("transport: peer's lane arena is not sealed against shrinking")
	}
	if st.Size < 2*lanePage || st.Size > laneArenaBytes || st.Size%lanePage != 0 {
		return nil, nil, fmt.Errorf("transport: peer's lane arena has an unusable size of %d bytes", st.Size)
	}
	if len(fds) == 2 {
		reg, err = receiveRegion(fds[1])
		fds = fds[:1]
		if err != nil {
			return nil, nil, err
		}
	}
	mem, err := mapShared(fd, int(st.Size))
	if err != nil {
		if reg != nil {
			reg.drop()
		}
		return nil, nil, err
	}
	return newArena(mem, int(st.Size)/lanePage, nil, func() { _ = syscall.Munmap(mem) }), reg, nil
}

// helloFDs extracts the descriptors a hello's control data must carry — the
// arena's, and a region's after it — closing all of them when their number
// is wrong.
func helloFDs(oob []byte) ([]int, error) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return nil, fmt.Errorf("transport: lane hello control data: %w", err)
	}
	var fds []int
	for i := range msgs {
		got, err := syscall.ParseUnixRights(&msgs[i])
		if err == nil {
			fds = append(fds, got...)
		}
	}
	if len(fds) != 1 && len(fds) != 2 {
		for _, fd := range fds {
			syscall.Close(fd)
		}
		return nil, fmt.Errorf("transport: lane hello carries %d descriptors, want 1 or 2", len(fds))
	}
	return fds, nil
}
