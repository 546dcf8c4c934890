(* Batched-execution benchmark: aggregate QPS of the served query path
   with batching on (compiled-plan cache + single-flight coalescing)
   versus off, at client concurrency 1 / 4 / 8, on the scaled dblp
   corpus. Usage:

     dune exec bench/batch_bench.exe                 # full sizes
     dune exec bench/batch_bench.exe -- --smoke      # small sizes (CI)
     dune exec bench/batch_bench.exe -- --out PATH   # JSON location

   Both sides run {!Xr_server.Server.handle} in-process (no sockets, so
   the kernel's network stack does not drown the signal) with the
   response LRU disabled ([cache_capacity = 0]): with the LRU on, both
   sides serve memcmp-speed cache hits and the execution paths under
   comparison never run. The LRU-off configuration is exactly the regime
   the batch layer is for — every request renders, so plan compilation
   (parse + rule mining) and duplicate concurrent renders are live costs
   that plan caching and coalescing remove.

   Before timing, every target is fetched once from each server and the
   bodies byte-compared — the batched path must be invisible in the
   responses. Writes BENCH_batch.json (see doc/PERF.md). *)

module Doc = Xr_xml.Doc
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Http = Xr_server.Http
module Json = Xr_server.Json
module Server = Xr_server.Server

(* Keyword names by descending posting-list length (same selection as
   slca_bench, so the two benches exercise the same regime). *)
let frequent_keywords (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc
  |> List.map (fun (kw, _) -> Doc.keyword_name index.Index.doc kw)

(* A hot-key read mix: searches (several limits of one query share a
   compiled plan) and refinements (plan caching amortizes rule mining,
   the dominant per-request fixed cost). Every client cycles the same
   list, so under concurrency genuinely overlapping identical requests
   appear — the case coalescing collapses to one render. *)
let targets (index : Index.t) =
  match frequent_keywords index with
  | k0 :: k1 :: k2 :: k3 :: _ ->
    let q kws = String.concat "+" kws in
    [|
      Printf.sprintf "/search?q=%s&limit=10" (q [ k0; k1 ]);
      Printf.sprintf "/search?q=%s&limit=5" (q [ k0; k1 ]);
      Printf.sprintf "/search?q=%s&limit=10" (q [ k0; k1; k2 ]);
      Printf.sprintf "/search?q=%s&limit=10" (q [ k1; k2; k3 ]);
      Printf.sprintf "/refine?q=%s&k=3" (q [ k0; k1 ]);
      Printf.sprintf "/refine?q=%s&k=3" (q [ k1; k2 ]);
      Printf.sprintf "/refine?q=%s&k=2" (q [ k0; k2; k3 ]);
    |]
  | _ -> failwith "dblp corpus has too few keywords"

let request target =
  let path, query = Http.split_target target in
  {
    Http.meth = Http.GET;
    target;
    path;
    query;
    version = "HTTP/1.1";
    headers = [ ("host", "bench") ];
    body = "";
  }

let fetch server target =
  let resp = Server.handle server (request target) in
  if resp.Http.status <> 200 then
    failwith (Printf.sprintf "%s -> %d" target resp.Http.status);
  resp.Http.resp_body

(* One timed round: [c] client domains cycling [targets] against
   [server] until the deadline. Returns completed requests per second.
   Every response status is checked — a shed or failed request would
   make the throughput comparison meaningless. *)
let measure server targets c duration =
  let reqs = Array.map request targets in
  let n = Array.length reqs in
  let stop_at = Unix.gettimeofday () +. duration in
  let count = Atomic.make 0 in
  let worker () =
    let i = ref 0 in
    let done_ = ref 0 in
    while Unix.gettimeofday () < stop_at do
      let resp = Server.handle server reqs.(!i) in
      if resp.Http.status <> 200 then failwith "non-200 during measurement";
      incr done_;
      i := if !i + 1 = n then 0 else !i + 1
    done;
    ignore (Atomic.fetch_and_add count !done_)
  in
  let t0 = Unix.gettimeofday () in
  let domains = Array.init c (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  let elapsed = Unix.gettimeofday () -. t0 in
  float_of_int (Atomic.get count) /. elapsed

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let rec out_of = function
    | "--out" :: p :: _ -> p
    | _ :: rest -> out_of rest
    | [] -> "BENCH_batch.json"
  in
  let out = out_of args in
  let pubs = if smoke then 300 else 3500 in
  let duration = if smoke then 0.5 else 1.2 in
  let rounds = 5 in
  Printf.printf "== batch_bench: dblp %d publications, %s mode ==\n%!" pubs
    (if smoke then "smoke" else "full");
  let doc = Doc.of_tree (Xr_data.Dblp.scaled ~publications:pubs ~seed:2009) in
  let index = Index.build doc in
  let config batch =
    {
      Server.default_config with
      Server.addr = Server.Tcp ("127.0.0.1", 0);
      domains = 1;
      cache_capacity = 0;
      log = false;
      trace = false;
      batch;
    }
  in
  let spec = { Server.name = "default"; index; kv = None } in
  let batched = Server.start_corpora (config true) [ spec ] in
  let unbatched = Server.start_corpora (config false) [ spec ] in
  Fun.protect
    ~finally:(fun () ->
      Server.stop batched;
      Server.stop unbatched)
    (fun () ->
      let ts = targets index in
      (* Warm both sides (populates the plan cache — the steady serving
         state under comparison) and verify byte-identity. *)
      Array.iter
        (fun t ->
          let a = fetch batched t and b = fetch unbatched t in
          if not (String.equal a b) then begin
            Printf.eprintf "batch_bench: MISMATCH on %s\n%!" t;
            exit 1
          end)
        ts;
      Printf.printf "byte-identity: %d targets OK\n%!" (Array.length ts);
      let levels = [ 1; 4; 8 ] in
      let rows =
        List.map
          (fun c ->
            (* Interleave the two sides round by round, alternating which
               goes first, so clock drift and background load cancel; each
               side keeps its best round (the fast tail is the least
               perturbed estimate on a shared host). *)
            let best_b = ref 0. and best_u = ref 0. in
            for round = 1 to rounds do
              if round land 1 = 1 then begin
                best_b := Float.max !best_b (measure batched ts c duration);
                best_u := Float.max !best_u (measure unbatched ts c duration)
              end
              else begin
                best_u := Float.max !best_u (measure unbatched ts c duration);
                best_b := Float.max !best_b (measure batched ts c duration)
              end
            done;
            let speedup = !best_b /. !best_u in
            Printf.printf
              "c=%d  batched %8.0f qps   unbatched %8.0f qps   speedup %.2fx\n%!"
              c !best_b !best_u speedup;
            Json.Obj
              [
                ("name", Json.String (Printf.sprintf "c%d" c));
                ("concurrency", Json.Int c);
                ("qps_batched", Json.Float !best_b);
                ("qps_unbatched", Json.Float !best_u);
                ( Printf.sprintf "speedup_batch_c%d_total" c,
                  Json.Float speedup );
              ])
          levels
      in
      let doc_json =
        Json.Obj
          [
            ("name", Json.String "batch_bench");
            (* single-core hosts time-slice the concurrency levels: tag
               the file degraded so the gate knows these numbers are
               not a scaling baseline ([run] keeps the size) *)
            ( "mode",
              Json.String
                (if Domain.recommended_domain_count () < 2 then "degraded"
                 else if smoke then "smoke"
                 else "full") );
            ("run", Json.String (if smoke then "smoke" else "full"));
            ("host_cores", Json.Int (Domain.recommended_domain_count ()));
            ("corpus", Json.String "dblp");
            ("publications", Json.Int pubs);
            ("targets", Json.Int (Array.length ts));
            ("rounds", Json.Int rounds);
            ("duration_s", Json.Float duration);
            ("byte_identical", Json.Bool true);
            ("concurrency", Json.List rows);
          ]
      in
      let oc = open_out out in
      output_string oc (Json.to_string doc_json);
      output_string oc "\n";
      close_out oc;
      Printf.printf "wrote %s\n%!" out)
