package extra

import (
	"repro/internal/authz"
)

// EnableAuthorization switches on privilege enforcement. Before this is
// called the database runs in single-user mode (everything allowed), as
// a freshly initialized system would.
func (db *DB) EnableAuthorization() {
	_ = db.editGrants(func(a *authz.Authorizer) error { a.Enable(); return nil })
}

// CreateUser registers a database user (and adds it to the all-users
// group).
func (db *DB) CreateUser(name string) error {
	return db.editGrants(func(a *authz.Authorizer) error { return a.CreateUser(name) })
}

// CreateGroup registers a user group.
func (db *DB) CreateGroup(name string) error {
	return db.editGrants(func(a *authz.Authorizer) error { return a.CreateGroup(name) })
}

// AddToGroup adds a user to a group.
func (db *DB) AddToGroup(user, group string) error {
	return db.editGrants(func(a *authz.Authorizer) error { return a.AddToGroup(user, group) })
}

// editGrants applies one edit to the working grant table and publishes
// it through the Go API's write path: the grant table is part of the
// catalog, which every snapshot carries, so the edit reaches readers
// the way DDL does; a failed edit publishes nothing. Grants are not
// durable (the log holds no grant statement either): the edit changes
// no data, so its window logs nothing.
//
// extra:acquires db.wmu.W
func (db *DB) editGrants(edit func(*authz.Authorizer) error) error {
	return db.apiWrite()(func() error { return edit(db.store.Catalog().Auth()) })
}

// SetUser switches the default session's current user; subsequent
// statements through DB.Exec/Query run with that user's privileges.
// Sessions created with NewSession carry their own user (Session.SetUser).
func (db *DB) SetUser(name string) error {
	return db.def.SetUser(name)
}

// CurrentUser returns the default session's user.
func (db *DB) CurrentUser() string {
	return db.def.CurrentUser()
}

// Grants lists the grants on a database object as published.
func (db *DB) Grants(object string) []string {
	return db.Catalog().Auth().Grants(object)
}

// AllUsersGroup is the name of the built-in group containing every user.
const AllUsersGroup = authz.AllUsers
