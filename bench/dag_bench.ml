(* DAG-compressed vs flat index benchmark. Usage:

     dune exec bench/dag_bench.exe                 # full sizes
     dune exec bench/dag_bench.exe -- --smoke      # small sizes (CI)
     dune exec bench/dag_bench.exe -- --out PATH   # JSON location

   For every bundled corpus this builds the same document under both
   index representations and reports
     - bytes/node of each form and their ratio (dag/flat) — the
       compression claim, gated on dblp by bench_gate.sh;
     - the serving query mix timed on both (identical results asserted)
       — the "compression costs nothing at query time" claim, gated at
       a 0.90 noise floor.

   Writes BENCH_dag.json (see doc/PERF.md for how to read it). *)

module Engine = Xr_slca.Engine
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Doc = Xr_xml.Doc
module Json = Xr_server.Json

let time_ns f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* Interleaved A/B minima, as in slca_bench: samples of the two sides
   alternate within one run and each keeps its best, cancelling machine
   speed out of the ratio. *)
let bench_pair fa fb =
  ignore (fa ());
  ignore (fb ());
  let iters = ref 1 in
  let sample f = time_ns (fun () -> for _ = 1 to !iters do ignore (f ()) done) in
  while sample fa < 1e7 && !iters < 10_000_000 do
    iters := !iters * 4
  done;
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to 7 do
    best_a := Float.min !best_a (sample fa);
    best_b := Float.min !best_b (sample fb)
  done;
  let n = float_of_int !iters in
  (!best_a /. n, !best_b /. n)

let corpora ~smoke =
  let dblp_pubs = if smoke then 300 else 3500 in
  [
    ("figure1", Xr_data.Figure1.doc ());
    ("baseball", Xr_data.Baseball.doc ());
    ("auction", Xr_data.Auction.doc ());
    ( "dblp",
      Doc.of_tree (Xr_data.Dblp.scaled ~publications:dblp_pubs ~seed:2009) );
  ]

(* Keyword ids by descending posting-list length (computed on the flat
   build, where the lists are already materialized). *)
let frequent_keywords (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  List.map fst (List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc)

(* The serving mix of slca_bench: frequent pairs/triples plus one
   frequent/infrequent pair. On the dag index every query runs over
   the memoized merged lists — exactly the steady-state serving cost
   the gate protects. *)
let queries (index : Index.t) =
  match frequent_keywords index with
  | k0 :: k1 :: k2 :: k3 :: rest ->
    let tail = match List.rev rest with t :: _ -> [ t ] | [] -> [] in
    [ [ k0; k1 ]; [ k0; k1; k2 ]; [ k0; k1; k2; k3 ]; ([ k0 ] @ tail) ]
    |> List.filter (fun q -> List.length q >= 2)
  | k0 :: k1 :: _ -> [ [ k0; k1 ] ]
  | _ -> []

let check_equal ~corpus words reference got =
  if not (List.equal Xr_xml.Dewey.equal got reference) then
    failwith
      (Printf.sprintf "dag query disagrees with flat on %s {%s}" corpus
         (String.concat " " words))

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let rec out_of = function
    | "--out" :: p :: _ -> p
    | _ :: rest -> out_of rest
    | [] -> "BENCH_dag.json"
  in
  let out = out_of args in
  let corpus_json = ref [] in
  List.iter
    (fun (name, doc) ->
      let flat = Index.build ~mode:Index.Flat doc in
      let dagged = Index.build ~mode:Index.Dag doc in
      let dag =
        match Inverted.dag dagged.Index.inverted with
        | Some d -> d
        | None -> assert false
      in
      let nodes = Doc.node_count doc in
      let flat_bytes = Inverted.resident_bytes flat.Index.inverted in
      let dag_bytes = Xr_dag.bytes dag in
      let per_node b = float_of_int b /. float_of_int (max 1 nodes) in
      let bytes_ratio = float_of_int dag_bytes /. float_of_int flat_bytes in
      let s = Xr_dag.stats dag in
      Printf.printf
        "\n== %s: %d nodes | flat %d B (%.1f/node) -> dag %d B (%.1f/node), ratio %.3f | \
         %d classes (node dedup %.3f, edge dedup %.3f) ==\n%!"
        name nodes flat_bytes (per_node flat_bytes) dag_bytes (per_node dag_bytes)
        bytes_ratio s.Xr_dag.classes (Xr_dag.node_dedup_ratio dag)
        (Xr_dag.edge_dedup_ratio dag);
      let flat_total = ref 0. and dag_total = ref 0. in
      let query_json = ref [] in
      List.iter
        (fun ids ->
          let words = List.map (Doc.keyword_name doc) ids in
          let reference = Engine.query_ids Engine.Scan_packed flat ids in
          let got = Engine.query_ids Engine.Scan_packed dagged ids in
          check_equal ~corpus:name words reference got;
          let flat_ns, dag_ns =
            bench_pair
              (fun () -> Engine.query_ids Engine.Scan_packed flat ids)
              (fun () -> Engine.query_ids Engine.Scan_packed dagged ids)
          in
          flat_total := !flat_total +. flat_ns;
          dag_total := !dag_total +. dag_ns;
          Printf.printf "  {%s}: %d slca | flat %8.0fns | dag %8.0fns (%.2fx)\n%!"
            (String.concat " " words) (List.length reference) flat_ns dag_ns
            (flat_ns /. dag_ns);
          query_json :=
            Json.Obj
              [
                ("keywords", Json.List (List.map (fun w -> Json.String w) words));
                ("results", Json.Int (List.length reference));
                ("flat_ns", Json.Float flat_ns);
                ("dag_ns", Json.Float dag_ns);
                ("speedup_dag", Json.Float (flat_ns /. dag_ns));
              ]
            :: !query_json)
        (queries flat);
      let speedup_total = if !dag_total > 0. then !flat_total /. !dag_total else 1. in
      Printf.printf "  aggregate query-time ratio (flat/dag): %.2fx\n%!" speedup_total;
      corpus_json :=
        Json.Obj
          [
            ("name", Json.String name);
            ("nodes", Json.Int nodes);
            ("postings", Json.Int s.Xr_dag.postings);
            ("flat_bytes", Json.Int flat_bytes);
            ("dag_bytes", Json.Int dag_bytes);
            ("bytes_per_node_flat", Json.Float (per_node flat_bytes));
            ("bytes_per_node_dag", Json.Float (per_node dag_bytes));
            ("bytes_per_node_ratio", Json.Float bytes_ratio);
            ("classes", Json.Int s.Xr_dag.classes);
            ("instances", Json.Int s.Xr_dag.instances);
            ("node_dedup_ratio", Json.Float (Xr_dag.node_dedup_ratio dag));
            ("edge_dedup_ratio", Json.Float (Xr_dag.edge_dedup_ratio dag));
            ("queries", Json.List (List.rev !query_json));
            ("speedup_dag_total", Json.Float speedup_total);
          ]
        :: !corpus_json)
    (corpora ~smoke);
  let payload =
    Json.Obj
      [
        ("bench", Json.String "dag-vs-flat-index");
        ("mode", Json.String (if smoke then "smoke" else "full"));
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("corpora", Json.List (List.rev !corpus_json));
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string payload);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" out
