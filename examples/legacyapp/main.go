// Legacyapp demonstrates the paper's "plug-and-go application integration"
// (§3.1): an existing application written against database/sql gains
// Preference SQL without changing its data-access layer — the preference
// driver sits where the ODBC/JDBC driver used to.
package main

import (
	"database/sql"
	"fmt"
	"log"

	_ "repro/driver"
)

func main() {
	db, err := sql.Open("prefsql", ":memory:")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // one in-memory instance per connection pool

	// Plain SQL: passes through to the engine untouched.
	mustExec(db, `CREATE TABLE hotels (id INT, name VARCHAR, location VARCHAR, price INT)`)
	mustExec(db, `INSERT INTO hotels VALUES
		(1, 'Central Plaza', 'downtown', 180),
		(2, 'Airport Inn',   'airport',  95),
		(3, 'Garden Lodge',  'suburb',   110),
		(4, 'River View',    'suburb',   140)`)

	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM hotels`).Scan(&n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d hotels\n\n", n)

	// The preference query of §2.2.1, parameterized with standard
	// placeholders: prefer hotels outside downtown, then the cheapest.
	rows, err := db.Query(`SELECT name, location, price FROM hotels
		PREFERRING location <> ? CASCADE LOWEST(price)`, "downtown")
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()

	fmt.Println("best matches (location <> 'downtown' CASCADE LOWEST(price)):")
	for rows.Next() {
		var name, location string
		var price int
		if err := rows.Scan(&name, &location, &price); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %-9s %4d EUR\n", name, location, price)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}

	// If only downtown hotels had rooms left, the same query would offer
	// them rather than nothing — soft constraints never strand the user.
	mustExec(db, `DELETE FROM hotels WHERE location <> 'downtown'`)
	var name string
	if err := db.QueryRow(`SELECT name FROM hotels
		PREFERRING location <> 'downtown' CASCADE LOWEST(price)`).Scan(&name); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter the others sold out, still an offer: %s\n", name)
}

func mustExec(db *sql.DB, q string, args ...any) {
	if _, err := db.Exec(q, args...); err != nil {
		log.Fatal(err)
	}
}
