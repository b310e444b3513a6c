package types

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSiteIDValid(t *testing.T) {
	cases := []struct {
		id   SiteID
		want bool
	}{
		{InvalidSite, false},
		{Broadcast, false},
		{1, true},
		{42, true},
		{math.MaxUint32 - 1, true},
	}
	for _, c := range cases {
		if got := c.id.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestSiteIDString(t *testing.T) {
	if s := InvalidSite.String(); s != "site(invalid)" {
		t.Errorf("InvalidSite.String() = %q", s)
	}
	if s := Broadcast.String(); s != "site(broadcast)" {
		t.Errorf("Broadcast.String() = %q", s)
	}
	if s := SiteID(7).String(); s != "site(7)" {
		t.Errorf("SiteID(7).String() = %q", s)
	}
}

func TestProgramIDRoundTrip(t *testing.T) {
	f := func(site uint32, seq uint32) bool {
		p := MakeProgramID(SiteID(site), seq)
		return p.StartSite() == SiteID(site) && p.Seq() == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgramIDUniqueAcrossSites(t *testing.T) {
	// Equal sequence numbers on different sites must give distinct ids.
	a := MakeProgramID(1, 9)
	b := MakeProgramID(2, 9)
	if a == b {
		t.Fatalf("program ids collide: %v == %v", a, b)
	}
}

func TestGlobalAddrNil(t *testing.T) {
	if !NilAddr.IsNil() {
		t.Error("NilAddr.IsNil() = false")
	}
	a := GlobalAddr{Home: 3, Local: 0}
	if a.IsNil() {
		t.Errorf("%v.IsNil() = true", a)
	}
	b := GlobalAddr{Home: 0, Local: 1}
	if b.IsNil() {
		t.Errorf("%v.IsNil() = true", b)
	}
}

func TestManagerIDValid(t *testing.T) {
	if MgrInvalid.Valid() {
		t.Error("MgrInvalid.Valid() = true")
	}
	for m := MgrProcessing; m < managerCount; m++ {
		if !m.Valid() {
			t.Errorf("%v.Valid() = false", m)
		}
	}
	if ManagerID(200).Valid() {
		t.Error("ManagerID(200).Valid() = true")
	}
}

func TestManagerIDNamesDistinct(t *testing.T) {
	seen := make(map[string]ManagerID)
	for m := MgrInvalid; m < managerCount; m++ {
		name := m.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("managers %v and %v share the name %q", prev, m, name)
		}
		seen[name] = m
	}
}

func TestAddrErrorUnwrap(t *testing.T) {
	err := &AddrError{Err: ErrNoSuchObject, Addr: GlobalAddr{Home: 2, Local: 5}}
	if !errors.Is(err, ErrNoSuchObject) {
		t.Error("AddrError does not unwrap to ErrNoSuchObject")
	}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}

func TestSiteErrorUnwrap(t *testing.T) {
	err := &SiteError{Err: ErrSiteUnknown, Site: 9}
	if !errors.Is(err, ErrSiteUnknown) {
		t.Error("SiteError does not unwrap to ErrSiteUnknown")
	}
	var se *SiteError
	if !errors.As(err, &se) || se.Site != 9 {
		t.Error("errors.As failed to recover SiteError")
	}
}

func TestPriorityOrdering(t *testing.T) {
	if !(PriorityLow < PriorityNormal && PriorityNormal < PriorityHigh && PriorityHigh < PriorityCritical) {
		t.Error("priority levels out of order")
	}
}

func TestPlatformString(t *testing.T) {
	if PlatformAny.String() != "platform(any)" {
		t.Errorf("PlatformAny.String() = %q", PlatformAny.String())
	}
	if PlatformID(3).String() != "platform(3)" {
		t.Errorf("PlatformID(3).String() = %q", PlatformID(3).String())
	}
}
