// Package authz implements the System R / IDM style authorization the
// paper sketches in §4.2.3: individual users and user groups (including
// the special all-users group), with select/update privileges granted and
// revoked on database variables. Data abstraction falls out of the same
// mechanism: granting access to a schema type only through its EXCESS
// functions and procedures makes the type an abstract data type in its
// own right.
package authz

import (
	"fmt"
	"maps"
	"sort"
)

// Priv is a privilege bit set.
type Priv uint8

// Privilege bits.
const (
	Select Priv = 1 << iota
	Update

	All = Select | Update
)

// ParsePriv maps the surface privilege names.
func ParsePriv(s string) (Priv, error) {
	switch s {
	case "select":
		return Select, nil
	case "update":
		return Update, nil
	case "all":
		return All, nil
	}
	return 0, fmt.Errorf("unknown privilege %q", s)
}

// String renders the privilege set.
func (p Priv) String() string {
	switch p {
	case Select:
		return "select"
	case Update:
		return "update"
	case All:
		return "all"
	case 0:
		return "none"
	}
	return fmt.Sprintf("priv(%d)", uint8(p))
}

// AllUsers is the name of the built-in group containing every user.
const AllUsers = "all_users"

// Authorizer tracks users, groups and grants. Like the catalog that
// holds it, it is edited only by serialized writers and read through
// immutable copies (Freeze), so no method takes a lock.
type Authorizer struct {
	users   map[string]bool
	groups  map[string]map[string]bool // group -> members
	grants  map[string]map[string]Priv // object -> principal -> privs
	owners  map[string]string          // object -> owning user
	enabled bool

	edits uint64 // counts changes; see Edits
}

// New returns an authorizer with the dba user pre-created. Enforcement
// starts disabled (single-user mode) and is switched on with Enable —
// matching how a freshly initialized database behaves.
func New() *Authorizer {
	a := &Authorizer{
		users:  map[string]bool{"dba": true},
		groups: map[string]map[string]bool{AllUsers: {"dba": true}},
		grants: map[string]map[string]Priv{},
		owners: map[string]string{},
	}
	return a
}

// bump records an edit.
func (a *Authorizer) bump() { a.edits++ }

// Edits counts the table's changes: a frozen copy is current for as
// long as it does not move.
func (a *Authorizer) Edits() uint64 { return a.edits }

// Freeze returns an immutable copy of the table.
func (a *Authorizer) Freeze() *Authorizer {
	f := &Authorizer{
		users:   maps.Clone(a.users),
		groups:  make(map[string]map[string]bool, len(a.groups)),
		grants:  make(map[string]map[string]Priv, len(a.grants)),
		owners:  maps.Clone(a.owners),
		enabled: a.enabled,
		edits:   a.edits,
	}
	for g, m := range a.groups {
		f.groups[g] = maps.Clone(m)
	}
	for o, m := range a.grants {
		f.grants[o] = maps.Clone(m)
	}
	return f
}

// Enable switches enforcement on.
func (a *Authorizer) Enable() {
	a.bump()
	a.enabled = true
}

// Enabled reports whether enforcement is on.
func (a *Authorizer) Enabled() bool {
	return a.enabled
}

// CreateUser registers a user and adds it to the all-users group.
func (a *Authorizer) CreateUser(name string) error {
	if a.users[name] {
		return fmt.Errorf("user %s already exists", name)
	}
	a.bump()
	a.users[name] = true
	a.groups[AllUsers][name] = true
	return nil
}

// CreateGroup registers a group.
func (a *Authorizer) CreateGroup(name string) error {
	if _, dup := a.groups[name]; dup {
		return fmt.Errorf("group %s already exists", name)
	}
	a.bump()
	a.groups[name] = map[string]bool{}
	return nil
}

// AddToGroup adds a user to a group.
func (a *Authorizer) AddToGroup(user, group string) error {
	if !a.users[user] {
		return fmt.Errorf("no user %s", user)
	}
	g, ok := a.groups[group]
	if !ok {
		return fmt.Errorf("no group %s", group)
	}
	a.bump()
	g[user] = true
	return nil
}

// UserExists reports whether the user is known.
func (a *Authorizer) UserExists(name string) bool {
	return a.users[name]
}

// SetOwner records the creator of a database object; owners hold all
// privileges implicitly and may grant them.
func (a *Authorizer) SetOwner(object, user string) {
	a.bump()
	a.owners[object] = user
}

// Owner returns the recorded owner of an object.
func (a *Authorizer) Owner(object string) string {
	return a.owners[object]
}

// Grant adds privileges on an object for each user or group named. Only
// the object's owner (or dba) may grant. An unknown name fails the grant
// where it stands; the caller drops the edit (Store.Abort).
func (a *Authorizer) Grant(granter, priv, object string, to []string) error {
	p, err := ParsePriv(priv)
	if err != nil {
		return err
	}
	if a.enabled && granter != "dba" && a.owners[object] != granter {
		return fmt.Errorf("%s does not own %s", granter, object)
	}
	for _, who := range to {
		if _, isGroup := a.groups[who]; !a.users[who] && !isGroup {
			return fmt.Errorf("no user or group %s", who)
		}
		a.bump()
		m, ok := a.grants[object]
		if !ok {
			m = map[string]Priv{}
			a.grants[object] = m
		}
		m[who] |= p
	}
	return nil
}

// Revoke removes privileges.
func (a *Authorizer) Revoke(revoker, priv, object string, from []string) error {
	p, err := ParsePriv(priv)
	if err != nil {
		return err
	}
	if a.enabled && revoker != "dba" && a.owners[object] != revoker {
		return fmt.Errorf("%s does not own %s", revoker, object)
	}
	for _, who := range from {
		if m, ok := a.grants[object]; ok {
			a.bump()
			m[who] &^= p
		}
	}
	return nil
}

// Check reports whether the user holds the privilege on the object.
// When enforcement is disabled everything is allowed; the dba and the
// object's owner always pass.
func (a *Authorizer) Check(user, object string, p Priv) error {
	if !a.enabled || user == "dba" || a.owners[object] == user {
		return nil
	}
	have := a.grants[object][user]
	for g, members := range a.groups {
		if members[user] {
			have |= a.grants[object][g]
		}
	}
	if have&p == p {
		return nil
	}
	return fmt.Errorf("user %s lacks %s on %s", user, p, object)
}

// Grants lists the grants on an object, sorted by principal, for
// catalog display.
func (a *Authorizer) Grants(object string) []string {
	m := a.grants[object]
	out := make([]string, 0, len(m))
	for who, p := range m {
		if p != 0 {
			out = append(out, who+": "+p.String())
		}
	}
	sort.Strings(out)
	return out
}
