(* SLCA kernel benchmark: packed vs reference engines on the bundled
   corpora. Usage:

     dune exec bench/slca_bench.exe                 # full sizes
     dune exec bench/slca_bench.exe -- --smoke      # small sizes (CI)
     dune exec bench/slca_bench.exe -- --out PATH   # JSON location

   Writes BENCH_slca.json (see doc/PERF.md for how to read it). *)

module Engine = Xr_slca.Engine
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Doc = Xr_xml.Doc
module Json = Xr_server.Json

let time_ns f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* A/B comparison resistant to clock drift: samples of [fa] and [fb]
   interleave within one run, and each side takes its best (minimum)
   sample — the pair of minima estimates the true cost ratio far more
   stably than medians of independent runs. *)
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

(* Keyword ids by descending posting-list length. *)
let frequent_keywords (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  List.map fst (List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc)

(* Query mix per corpus: high-frequency pairs and triples (the regime the
   scan kernels are built for) plus one frequent/infrequent pair (large
   seek distances, the galloping-cursor regime). *)
let queries (index : Index.t) =
  match frequent_keywords index with
  | k0 :: k1 :: k2 :: k3 :: rest ->
    let tail = match List.rev rest with t :: _ -> [ t ] | [] -> [] in
    [ [ k0; k1 ]; [ k0; k1; k2 ]; [ k0; k1; k2; k3 ]; ([ k0 ] @ tail) ]
    |> List.filter (fun q -> List.length q >= 2)
  | k0 :: k1 :: _ -> [ [ k0; k1 ] ]
  | _ -> []

let engine_pairs = [ (Engine.Scan_eager, Engine.Scan_packed); (Engine.Stack, Engine.Stack_packed) ]

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let rec out_of = function
    | "--out" :: p :: _ -> p
    | _ :: rest -> out_of rest
    | [] -> "BENCH_slca.json"
  in
  let out = out_of args in
  let corpus_json = ref [] in
  (* Tracing-off observability overhead on the dblp corpus: the public
     instrumented entry (span wrapper + probe counters) vs the bare
     Scan_packed kernel on the same packed lists, timed in the same run
     so machine speed cancels out. Gated at <= 2% by bench_gate.sh. *)
  let instr_ns = ref 0. and raw_ns = ref 0. in
  (* ANALYZE-off overhead on the same corpus: the per-task wrapper the
     pool installs ([Analyze.current] + [Analyze.task None]) plus one
     guarded [note_stage] — the exact machinery a normal request pays
     for with no report ambient — against the same instrumented scan
     without it. Gated at <= 2% like the tracing number. *)
  let analyze_instr_ns = ref 0. and analyze_raw_ns = ref 0. in
  List.iter
    (fun (name, doc) ->
      (* Pinned flat: these benches measure their kernels, not the index
         representation — bench/dag_bench.exe owns the flat-vs-dag
         comparison, so the numbers here stay stable across the CI
         XR_INDEX matrix. *)
      let index = Index.build ~mode:Index.Flat doc in
      let postings = ref 0 and bytes = ref 0 in
      Inverted.iter_packed
        (fun _ pk ->
          postings := !postings + Inverted.packed_postings pk;
          bytes := !bytes + Inverted.packed_bytes pk)
        index.Index.inverted;
      Printf.printf "\n== %s: %d nodes, %d postings, %d packed bytes ==\n%!" name
        (Doc.node_count doc) !postings !bytes;
      let totals = Hashtbl.create 8 in
      let add alg ns =
        let k = Engine.name alg in
        Hashtbl.replace totals k (ns +. (try Hashtbl.find totals k with Not_found -> 0.))
      in
      let query_json = ref [] in
      List.iter
        (fun ids ->
          let words = List.map (Doc.keyword_name doc) ids in
          let reference = Engine.query_ids Engine.Scan_eager index ids in
          (* Both sides' inputs are fetched once, outside the timed
             closures: the list-based references get boxed lists decoded
             here ([Inverted.list] decodes on every call), the packed
             kernels the index's own buffers. *)
          let lists = List.map (Inverted.list index.Index.inverted) ids in
          let labels =
            List.map
              (fun kw -> (Inverted.packed_list index.Index.inverted kw).Inverted.labels)
              ids
          in
          let engines = ref [] in
          List.iter
            (fun (ref_alg, packed_alg) ->
              List.iter
                (fun alg ->
                  let got = Engine.query_ids alg index ids in
                  if not (List.equal Xr_xml.Dewey.equal got reference) then
                    failwith
                      (Printf.sprintf "%s disagrees with scan-eager on %s {%s}"
                         (Engine.name alg) name (String.concat " " words)))
                [ ref_alg; packed_alg ];
              (* interleaved A/B: on the nanosecond-scale corpora
                 (figure1, 33 nodes) independently sampled medians flap
                 across runs and trip the bench gate's noise floor; the
                 paired minima cancel machine speed out *)
              let ref_ns, packed_ns =
                bench_pair
                  (fun () -> Engine.compute ref_alg lists)
                  (fun () -> Engine.compute_packed packed_alg labels)
              in
              add ref_alg ref_ns;
              add packed_alg packed_ns;
              engines :=
                (Engine.name packed_alg, Json.Float packed_ns)
                :: (Engine.name ref_alg, Json.Float ref_ns)
                :: !engines)
            engine_pairs;
          let ns alg = match List.assoc (Engine.name alg) !engines with
            | Json.Float f -> f
            | _ -> assert false
          in
          let speedup_scan = ns Engine.Scan_eager /. ns Engine.Scan_packed in
          let speedup_stack = ns Engine.Stack /. ns Engine.Stack_packed in
          Printf.printf
            "  {%s}: %d slca | scan %8.0fns -> %8.0fns (%.2fx) | stack %8.0fns -> %8.0fns (%.2fx)\n%!"
            (String.concat " " words) (List.length reference) (ns Engine.Scan_eager)
            (ns Engine.Scan_packed) speedup_scan (ns Engine.Stack) (ns Engine.Stack_packed)
            speedup_stack;
          if name = "dblp" then begin
            (* The instrumentation delta is a percent-scale quantity, well
               inside one bench_pair run's noise on a loaded host, so give
               this comparison three interleaved pairings and keep each
               side's best — minima converge on the undisturbed cost. *)
            let instr = ref infinity and raw = ref infinity in
            for _ = 1 to 3 do
              let i, r =
                bench_pair
                  (fun () -> Engine.compute_packed Engine.Scan_packed labels)
                  (fun () -> Xr_slca.Scan_packed.compute labels)
              in
              instr := Float.min !instr i;
              raw := Float.min !raw r
            done;
            instr_ns := !instr_ns +. !instr;
            raw_ns := !raw_ns +. !raw;
            let a_instr = ref infinity and a_raw = ref infinity in
            (* [current] is captured once per batch submit on the real
               path, not once per task — hoist it to match *)
            let actx = Xr_obs.Analyze.current () in
            for _ = 1 to 3 do
              let i, r =
                bench_pair
                  (fun () ->
                    Xr_obs.Analyze.task actx (fun () ->
                        ignore (Engine.compute_packed Engine.Scan_packed labels);
                        if Xr_obs.Analyze.active () then
                          Xr_obs.Analyze.note_stage ~name:"bench" ~input:0 ~output:0))
                  (fun () -> Engine.compute_packed Engine.Scan_packed labels)
              in
              a_instr := Float.min !a_instr i;
              a_raw := Float.min !a_raw r
            done;
            analyze_instr_ns := !analyze_instr_ns +. !a_instr;
            analyze_raw_ns := !analyze_raw_ns +. !a_raw
          end;
          query_json :=
            Json.Obj
              [
                ("keywords", Json.List (List.map (fun w -> Json.String w) words));
                ("results", Json.Int (List.length reference));
                ("engines_ns", Json.Obj (List.rev !engines));
                ("speedup_scan", Json.Float speedup_scan);
                ("speedup_stack", Json.Float speedup_stack);
              ]
            :: !query_json)
        (queries index);
      let total alg = try Hashtbl.find totals (Engine.name alg) with Not_found -> 0. in
      let agg_scan = total Engine.Scan_eager /. total Engine.Scan_packed in
      let agg_stack = total Engine.Stack /. total Engine.Stack_packed in
      Printf.printf "  aggregate: scan-packed %.2fx, stack-packed %.2fx\n%!" agg_scan agg_stack;
      corpus_json :=
        Json.Obj
          [
            ("name", Json.String name);
            ("nodes", Json.Int (Doc.node_count doc));
            ("postings", Json.Int !postings);
            ("packed_bytes", Json.Int !bytes);
            ("queries", Json.List (List.rev !query_json));
            ("speedup_scan_total", Json.Float agg_scan);
            ("speedup_stack_total", Json.Float agg_stack);
          ]
        :: !corpus_json)
    (corpora ~smoke);
  let overhead_pct = if !raw_ns > 0. then ((!instr_ns /. !raw_ns) -. 1.) *. 100. else 0. in
  Printf.printf "\ntracing-off overhead (dblp, instrumented vs bare kernel): %+.2f%%\n%!"
    overhead_pct;
  let analyze_off_pct =
    if !analyze_raw_ns > 0. then ((!analyze_instr_ns /. !analyze_raw_ns) -. 1.) *. 100. else 0.
  in
  Printf.printf "analyze-off overhead (dblp, wrapped vs unwrapped scan): %+.2f%%\n%!"
    analyze_off_pct;
  let payload =
    Json.Obj
      [
        ("bench", Json.String "slca-packed-vs-reference");
        ("mode", Json.String (if smoke then "smoke" else "full"));
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("tracing_off_overhead_pct", Json.Float overhead_pct);
        ("analyze_off_overhead_pct", Json.Float analyze_off_pct);
        ("corpora", Json.List (List.rev !corpus_json));
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string payload);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" out
