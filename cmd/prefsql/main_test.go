package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/server"
)

func TestRunStatement(t *testing.T) {
	db := embeddedBackend{db: prefsql.Open()}
	if err := runStatement(db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);", true); err != nil {
		t.Fatal(err)
	}
	if err := runStatement(db, "SELECT * FROM t;", false); err != nil {
		t.Fatal(err)
	}
	if err := runStatement(db, "SELEKT;", false); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestMetaCommands(t *testing.T) {
	edb := prefsql.Open()
	db := embeddedBackend{db: edb}
	edb.MustExec("CREATE TABLE t (a INT)")
	edb.MustExec("CREATE VIEW v AS SELECT * FROM t")
	edb.MustExec("CREATE PREFERENCE fav AS LOWEST(a)")

	if command(db, "\\q") != true {
		t.Error("\\q should quit")
	}
	for _, cmd := range []string{
		"\\tables",
		"\\prefs",
		"\\mode rewrite",
		"\\mode native",
		"\\mode bogus",
		"\\algo bnl",
		"\\algo bogus",
		"\\explain SELECT * FROM t PREFERRING LOWEST(a)",
		"\\explain SELECT * FROM t", // error path: not a preference query
		"\\unknowncommand",
	} {
		if command(db, cmd) {
			t.Errorf("%s should not quit", cmd)
		}
	}
	// A retired algorithm token selects auto.
	command(db, "\\algo vec")
	if a := edb.Internal().DefaultSession().Algorithm(); a != prefsql.Auto {
		t.Errorf("\\algo vec selected %v, want auto", a)
	}
}

func TestScriptFileFlow(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "setup.sql")
	content := `CREATE TABLE trips (id INT, duration INT);
INSERT INTO trips VALUES (1, 7), (2, 13);
SELECT id FROM trips PREFERRING duration AROUND 14;`
	if err := os.WriteFile(script, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db := embeddedBackend{db: prefsql.Open()}
	data, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := runStatement(db, string(data), false); err != nil {
		t.Fatalf("script: %v", err)
	}
}

func TestRemoteBackend(t *testing.T) {
	edb := prefsql.Open()
	srv := server.New(edb.Internal(), server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	db := remoteBackend{c: conn}
	defer db.close()

	if err := runStatement(db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);", false); err != nil {
		t.Fatal(err)
	}
	if err := runStatement(db, "SELECT a FROM t PREFERRING LOWEST(a);", false); err != nil {
		t.Fatal(err)
	}
	if err := runStatement(db, "SELEKT;", false); err == nil {
		t.Error("bad SQL should error remotely too")
	}
	for _, cmd := range []string{
		"\\mode rewrite", "\\mode native", "\\algo bnl", "\\algo sfs",
		"\\tables", // unsupported remotely: prints an error, keeps running
		"\\explain SELECT * FROM t PREFERRING LOWEST(a)", // ditto
	} {
		if command(db, cmd) {
			t.Errorf("%s should not quit", cmd)
		}
	}
}
