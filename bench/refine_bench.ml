(* Refinement pipeline benchmark: absolute time of the three refinement
   algorithms on the bundled corpora. Usage:

     dune exec bench/refine_bench.exe                 # full sizes
     dune exec bench/refine_bench.exe -- --smoke      # small sizes (CI)
     dune exec bench/refine_bench.exe -- --out PATH   # JSON location

   Each corpus runs four workloads exercising one rewrite operation each
   (deletion / merging / split / substitution); each workload times the
   three algorithms on the packed lists, warm ([packed_ns]) and cold
   ([cold_ns]). Writes BENCH_refine.json (see doc/PERF.md); correctness
   is the oracle suite's job (test/test_refine_packed.ml). *)

module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Doc = Xr_xml.Doc
module Json = Xr_server.Json
open Xr_refine

let time_ns f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* Per-call time: the iteration count grows until one sample takes
   >= 10 ms, then the best (minimum) of 7 samples is kept — the minimum
   converges on the undisturbed cost on a loaded host. *)
let bench f =
  ignore (f ());
  let iters = ref 1 in
  let sample () = time_ns (fun () -> for _ = 1 to !iters do ignore (f ()) done) in
  while sample () < 1e7 && !iters < 10_000_000 do
    iters := !iters * 4
  done;
  let best = ref infinity in
  for _ = 1 to 7 do
    best := Float.min !best (sample ())
  done;
  !best /. float_of_int !iters

(* Cold per-call time: the median of 15 single calls, each on a fresh
   [Index.fork] made outside the timed region, so [Stats.cooccur]'s memo
   starts empty as on a cold /refine. [bench]'s repeated calls reuse one
   index and see the memo warm after the first. *)
let cold index rules query run =
  let samples =
    Array.init 15 (fun _ ->
        let c = Refine_common.make (Index.fork index) rules query in
        time_ns (fun () -> ignore (run c)))
  in
  Array.sort Float.compare samples;
  samples.(7)

let corpora ~smoke =
  let dblp_pubs = if smoke then 300 else 2000 in
  [
    ("figure1", Xr_data.Figure1.doc ());
    ("baseball", Xr_data.Baseball.doc ());
    ("auction", Xr_data.Auction.doc ());
    ("dblp", Doc.of_tree (Xr_data.Dblp.scaled ~publications:dblp_pubs ~seed:2009));
  ]

(* Keyword names by descending posting-list length. *)
let frequent_keywords (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc
  |> List.map (fun (kw, _) -> Doc.keyword_name index.Index.doc kw)

(* One workload per rewrite operation. Every query contains a keyword
   absent from the document, so the original query never matches and the
   full refinement machinery (partition scan, DP, per-partition SLCAs,
   ranking) runs end to end. *)
let workloads (index : Index.t) =
  match frequent_keywords index with
  | k1 :: k2 :: _ ->
    [
      ("deletion", [ k1; k2; "zzzworkloadjunk" ], []);
      ("merge", [ "zzfraga"; "zzfragb"; k2 ], [ Rule.merging [ "zzfraga"; "zzfragb" ] k1 ]);
      ("split", [ "zzfusedpair" ], [ Rule.split "zzfusedpair" [ k1; k2 ] ]);
      ("substitution", [ "zzsubstsrc"; k2 ], [ Rule.synonym "zzsubstsrc" k1 ]);
    ]
  | _ -> []

let algorithms ~k =
  [
    ("stack-refine", fun c -> fst (Stack_refine.run c));
    ("partition", fun c -> fst (Partition.run ~k c));
    ("sle", fun c -> fst (Sle.run ~k c));
  ]

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let rec out_of = function
    | "--out" :: p :: _ -> p
    | _ :: rest -> out_of rest
    | [] -> "BENCH_refine.json"
  in
  let out = out_of args in
  let k = 3 in
  let corpus_json = ref [] in
  List.iter
    (fun (name, doc) ->
      let index = Index.build doc in
      Printf.printf "\n== %s: %d nodes ==\n%!" name (Doc.node_count doc);
      let total = ref 0. and cold_total = ref 0. in
      let workload_json =
        List.map
          (fun (wname, query, rules) ->
            let rules = Ruleset.of_rules rules in
            let c = Refine_common.make index rules query in
            let alg_json =
              List.map
                (fun (alg, run) ->
                  let ns = bench (fun () -> run c) in
                  let cold_ns = cold index rules query run in
                  total := !total +. ns;
                  cold_total := !cold_total +. cold_ns;
                  Printf.printf "  %-12s %-12s %10.0fns  cold %10.0fns\n%!" wname alg ns
                    cold_ns;
                  Json.Obj
                    [
                      ("algorithm", Json.String alg);
                      ("packed_ns", Json.Float ns);
                      ("cold_ns", Json.Float cold_ns);
                    ])
                (algorithms ~k)
            in
            Json.Obj
              [
                ("name", Json.String wname);
                ("query", Json.List (List.map (fun w -> Json.String w) query));
                ("algorithms", Json.List alg_json);
              ])
          (workloads index)
      in
      Printf.printf "  total %.0fns  cold %.0fns\n%!" !total !cold_total;
      corpus_json :=
        Json.Obj
          [
            ("name", Json.String name);
            ("nodes", Json.Int (Doc.node_count doc));
            ("workloads", Json.List workload_json);
            ("packed_ns_total", Json.Float !total);
            ("cold_ns_total", Json.Float !cold_total);
          ]
        :: !corpus_json)
    (corpora ~smoke);
  let payload =
    Json.Obj
      [
        ("bench", Json.String "refine-packed");
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
