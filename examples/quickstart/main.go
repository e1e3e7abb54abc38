// Quickstart: create a table, run the paper's hotel skyline query
// (Listing 2) via SQL, and inspect the plan and metrics.
package main

import (
	"fmt"
	"log"

	"skysql"
)

func main() {
	sess := skysql.NewSession(skysql.WithExecutors(4))

	schema := skysql.NewSchema(
		skysql.Field{Name: "name", Type: skysql.KindString},
		skysql.Field{Name: "price", Type: skysql.KindFloat},
		skysql.Field{Name: "user_rating", Type: skysql.KindFloat},
	)
	rows := []skysql.Row{
		{skysql.Str("Seaside Inn"), skysql.Float(120), skysql.Float(8.1)},
		{skysql.Str("Grand Palace"), skysql.Float(290), skysql.Float(9.4)},
		{skysql.Str("Budget Stay"), skysql.Float(55), skysql.Float(6.0)},
		{skysql.Str("Harbor View"), skysql.Float(140), skysql.Float(8.9)},
		{skysql.Str("Old Mill"), skysql.Float(75), skysql.Float(7.2)},
		{skysql.Str("City Center"), skysql.Float(130), skysql.Float(7.9)}, // dominated by Harbor View
		{skysql.Str("Overpriced"), skysql.Float(300), skysql.Float(9.0)},  // dominated by Grand Palace
	}
	sess.MustCreateTable("hotels", schema, rows)

	// The paper's Listing 2: a skyline query in extended SQL.
	query := "SELECT name, price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX"
	df, err := sess.SQL(query)
	if err != nil {
		log.Fatal(err)
	}
	result, err := df.Collect()
	if err != nil {
		log.Fatal(err)
	}
	outSchema, _ := df.Schema()

	fmt.Println("Pareto-optimal hotels (cheap AND well-rated):")
	fmt.Print(skysql.FormatRows(outSchema, result))

	plan, _ := df.Explain()
	fmt.Println("\nHow the engine ran it:")
	fmt.Print(plan)

	fmt.Printf("\ndominance tests: %d, rows shuffled: %d, wall clock: %s\n",
		df.Metrics().Sky.DominanceTests(), df.Metrics().Count(skysql.RowsShuffled), df.Duration())
}
