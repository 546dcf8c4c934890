(* Batched execution: the tiny-driver kernel against the general scan,
   concurrent chunked queries over shared lists against one-at-a-time
   scans, compiled plans against the uncompiled engine (byte-compared
   through the served payloads), plan-cache hit/eviction/single-flight
   behaviour and its generation-keyed invalidation across an ingest
   publish, and the single-flight coalescer's leader/follower
   contract. *)

open Xr_xml
module P = Dewey.Packed
module Scan_packed = Xr_slca.Scan_packed
module Slca_engine = Xr_slca.Engine
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Rengine = Xr_refine.Engine
module Plan = Xr_batch.Plan
module Plan_cache = Xr_batch.Plan_cache
module Coalesce = Xr_batch.Coalesce
module Api = Xr_server.Api
module Json = Xr_server.Json
module Http = Xr_server.Http
module Server = Xr_server.Server

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- generators (same shapes as test_parallel) --------------------------- *)

let gen_label =
  QCheck.Gen.(
    list_size (int_bound 6)
      (frequency [ (6, int_bound 5); (2, int_bound 300); (1, int_bound 100_000) ])
    |> map Array.of_list)

let gen_sorted_labels =
  QCheck.Gen.(
    list_size (int_range 1 60) gen_label |> map (fun l -> List.sort_uniq Dewey.compare l))

let print_lists lists =
  String.concat "; "
    (List.map (fun l -> String.concat " " (List.map Dewey.to_string l)) lists)

(* ---- tiny kernel = general kernel ---------------------------------------- *)

let arb_lists =
  QCheck.make
    ~print:(fun l -> print_lists l)
    QCheck.Gen.(list_size (int_range 2 4) gen_sorted_labels)

let prop_tiny_eq_chunk =
  QCheck.Test.make ~name:"tiny-driver kernel = general scan kernel" ~count:300 arb_lists
    (fun lists ->
      let ranges = List.map (fun l -> let pk = P.of_list l in (pk, 0, P.length pk)) lists in
      match Scan_packed.sort_by_length ranges with
      | driver :: others ->
        List.equal Dewey.equal
          (Scan_packed.scan_tiny ~driver ~others ())
          (Scan_packed.scan_chunk ~driver ~others ())
      | [] -> true)

let test_tiny_dispatch_counted () =
  let before = Scan_packed.tiny_scans () in
  let pks = List.map P.of_list [ [ [| 1; 1 |]; [| 1; 2 |] ]; [ [| 1 |] ] ] in
  let r = Scan_packed.compute pks in
  check Alcotest.bool "tiny scan counted" true (Scan_packed.tiny_scans () > before);
  check Alcotest.(list string) "result" [ "0.1" ] (List.map Dewey.to_string r)

(* ---- concurrent queries over shared lists = one-at-a-time ---------------- *)

let shared_pool = lazy (Xr_pool.create ~domains:4 ())

(* Queries share physical packed lists (what concurrent requests for
   overlapping keywords read) on top of random private ones. *)
let arb_shared_batch =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 3) gen_sorted_labels >>= fun commons ->
      let commons = List.map P.of_list commons in
      list_size (int_range 1 6)
        (list_size (int_range 0 2) gen_sorted_labels >>= fun privates ->
         int_range 0 (List.length commons) >>= fun take ->
         return
           (List.filteri (fun i _ -> i < take) commons @ List.map P.of_list privates)))
  in
  QCheck.make
    ~print:(fun batch ->
      String.concat " || "
        (List.map
           (fun q ->
             print_lists (List.map (fun pk -> List.init (P.length pk) (P.get pk)) q))
           batch))
    gen

let prop_concurrent_shared_eq_solo =
  QCheck.Test.make ~name:"concurrent chunked scans = solo" ~count:200
    arb_shared_batch (fun batch ->
      let queries = List.map (List.map (fun pk -> (pk, 0, P.length pk))) batch in
      let solo = List.map Scan_packed.compute_ranges queries in
      let pool = Lazy.force shared_pool in
      (* every query is its own pool task and forks its own chunks into
         the same pool (nested run), so scans of one list overlap *)
      let results = Array.make (List.length queries) [] in
      Xr_pool.run pool
        (Array.of_list
           (List.mapi
              (fun i q () ->
                results.(i) <- Xr_slca.Parallel.compute_ranges ~pool ~chunks:(2 + (i mod 3)) q)
              queries));
      List.equal (List.equal Dewey.equal) solo (Array.to_list results))

(* ---- compiled plans = uncompiled engine ---------------------------------- *)

let top2 (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_packed
    (fun kw pk ->
      let n = Inverted.packed_postings pk in
      if n > 0 then acc := (kw, n) :: !acc)
    index.Index.inverted;
  match
    List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc
    |> List.map (fun (kw, _) -> Doc.keyword_name index.Index.doc kw)
  with
  | k1 :: k2 :: _ -> (k1, k2)
  | _ -> Alcotest.fail "corpus has fewer than two keywords"

let plan_corpora =
  lazy
    [
      ("figure1", Index.build (Xr_data.Figure1.doc ()));
      ("dblp", Index.build (Doc.of_tree (Xr_data.Dblp.scaled ~publications:120 ~seed:42)));
    ]

let test_plan_search_eq_engine () =
  List.iter
    (fun (cname, index) ->
      let k1, k2 = top2 index in
      List.iter
        (fun slca ->
          let config = { Rengine.default_config with Rengine.slca } in
          List.iter
            (fun query ->
              let plan = Plan.compile_search ~config index query in
              check Alcotest.bool
                (Printf.sprintf "%s/%s {%s}" cname (Slca_engine.name slca)
                   (String.concat " " query))
                true
                (List.equal Dewey.equal
                   (Rengine.search ~config index query)
                   (Plan.run_search ~config plan index)))
            [
              [ k1; k2 ]; [ k1 ]; [ k2; k1; k2 ]; [ "zzznope" ]; [ k1; "zzznope" ]; [];
            ])
        [
          Slca_engine.Scan_parallel;
          Slca_engine.Scan_packed;
          Slca_engine.Stack_packed;
          Slca_engine.Scan_eager;
        ])
    (Lazy.force plan_corpora)

let test_plan_search_tiny_forced () =
  (* With the tiny threshold maxed every scan-family plan compiles to
     the [Tiny] shape; results must not move. *)
  let old = Scan_packed.tiny_threshold () in
  Scan_packed.set_tiny_threshold max_int;
  Fun.protect
    ~finally:(fun () -> Scan_packed.set_tiny_threshold old)
    (fun () ->
      List.iter
        (fun (cname, index) ->
          let k1, k2 = top2 index in
          let config =
            { Rengine.default_config with Rengine.slca = Slca_engine.Scan_packed }
          in
          let query = [ k1; k2 ] in
          let plan = Plan.compile_search ~config index query in
          check Alcotest.bool (cname ^ ": tiny-compiled = engine") true
            (List.equal Dewey.equal
               (Rengine.search ~config index query)
               (Plan.run_search ~config plan index)))
        (Lazy.force plan_corpora))

let test_plan_refine_eq_engine () =
  List.iter
    (fun (cname, index) ->
      let k1, k2 = top2 index in
      List.iter
        (fun query ->
          (* one compiled rule list serves every (k, algorithm) combination *)
          let plan = Plan.compile_refine index query in
          List.iter
            (fun (k, algorithm) ->
              let config = { Rengine.default_config with Rengine.k; algorithm } in
              let bytes resp = Json.to_string (Api.refine_payload index ~query resp) in
              check Alcotest.string
                (Printf.sprintf "%s/%s k=%d {%s}" cname
                   (Rengine.algorithm_name algorithm)
                   k (String.concat " " query))
                (bytes (Rengine.refine ~config index query))
                (bytes (Plan.run_refine ~config plan index query)))
            [ (3, Rengine.Partition); (2, Rengine.Short_list_eager); (1, Rengine.Stack_refine) ])
        [ [ k1; k2; "zzparjunk" ]; [ "zzonly" ] ])
    (Lazy.force plan_corpora)

(* ---- plan cache ----------------------------------------------------------- *)

let dummy_search () = Plan_cache.Search (Plan.compile_search (Index.build (Xr_data.Figure1.doc ())) [ "x" ])

let test_plan_cache_hits_and_eviction () =
  let cache = Plan_cache.create ~shards:1 ~capacity:2 () in
  let compiles = ref 0 in
  let get key =
    Plan_cache.find_or_compile cache ~key (fun () ->
        incr compiles;
        dummy_search ())
  in
  let h0 = Plan_cache.hits () and m0 = Plan_cache.misses () in
  ignore (get "a");
  ignore (get "a");
  check Alcotest.int "one compile for two lookups" 1 !compiles;
  check Alcotest.int "hit counted" 1 (Plan_cache.hits () - h0);
  check Alcotest.int "miss counted" 1 (Plan_cache.misses () - m0);
  ignore (get "b");
  ignore (get "c");
  (* FIFO, capacity 2: "a" is gone, "c" resident *)
  check Alcotest.int "bounded" 2 (Plan_cache.size cache);
  ignore (get "c");
  check Alcotest.int "resident key needs no compile" 3 !compiles;
  ignore (get "a");
  check Alcotest.int "evicted key recompiles" 4 !compiles

let test_plan_cache_single_flight () =
  let cache = Plan_cache.create ~shards:1 ~capacity:8 () in
  let compiles = Atomic.make 0 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Plan_cache.find_or_compile cache ~key:"same" (fun () ->
                Atomic.incr compiles;
                Unix.sleepf 0.02;
                dummy_search ())))
  in
  Array.iter (fun d -> ignore (Domain.join d)) domains;
  check Alcotest.int "the herd compiles once" 1 (Atomic.get compiles)

(* ---- coalescer ------------------------------------------------------------ *)

let test_coalesce_single_flight () =
  let t = Coalesce.create () in
  let entered = Atomic.make 0 in
  let renders = Atomic.make 0 in
  let results = Array.make 4 ("", false) in
  let domains =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            results.(i) <-
              Coalesce.run t ~key:"k" (fun () ->
                  Atomic.incr renders;
                  (* hold the flight open until every domain has entered
                     [run], then a beat longer so the last one blocks *)
                  while Atomic.get entered < 4 do
                    Domain.cpu_relax ()
                  done;
                  Unix.sleepf 0.05;
                  "body")))
  in
  Array.iter (fun d -> Domain.join d) domains;
  check Alcotest.int "one render" 1 (Atomic.get renders);
  Array.iter (fun (b, _) -> check Alcotest.string "same bytes" "body" b) results;
  check Alcotest.int "exactly one leader" 1
    (Array.length (Array.of_seq (Seq.filter (fun (_, f) -> not f) (Array.to_seq results))));
  check Alcotest.int "flight closed" 0 (Coalesce.in_flight t)

let test_coalesce_exception_propagates () =
  let t = Coalesce.create () in
  let entered = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let domains =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            match
              Coalesce.run t ~key:"boom" (fun () ->
                  while Atomic.get entered < 2 do
                    Domain.cpu_relax ()
                  done;
                  Unix.sleepf 0.05;
                  failwith "render failed")
            with
            | _ -> ()
            | exception Failure _ -> Atomic.incr failures))
  in
  Array.iter (fun d -> Domain.join d) domains;
  check Alcotest.int "leader and follower both raise" 2 (Atomic.get failures);
  check Alcotest.int "failed flight closed" 0 (Coalesce.in_flight t)

let test_coalesce_follower_helps () =
  (* A follower's wait must drain queued pool work. Fill the global pool
     (two workers + one submitting helper) with three blockers so the
     fourth task stays queued, then open a flight whose leader holds
     until that task has run: the only domain that can run it is the
     follower, through the [try_help] call in its wait loop. *)
  Xr_pool.reset_global ~domains:3 ();
  let pool = Xr_pool.global () in
  let started = Atomic.make 0 in
  let release = Atomic.make false in
  let helped_ran = Atomic.make 0 in
  let task () =
    if Atomic.fetch_and_add started 1 < 3 then
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done
    else Atomic.incr helped_ran
  in
  let submitter = Domain.spawn (fun () -> Xr_pool.run pool (Array.make 4 task)) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join submitter;
      (* back to the environment's default size for the tests after us *)
      Xr_pool.reset_global ())
    (fun () ->
      while Atomic.get started < 3 do
        Domain.cpu_relax ()
      done;
      let helped_before = Coalesce.helped () in
      let t = Coalesce.create () in
      let entered = Atomic.make 0 in
      let flyers =
        Array.init 2 (fun _ ->
            Domain.spawn (fun () ->
                Atomic.incr entered;
                Coalesce.run t ~key:"h" (fun () ->
                    (* hold the flight until the follower has entered
                       and donated its wait to the queued task *)
                    while Atomic.get entered < 2 || Atomic.get helped_ran < 1 do
                      Domain.cpu_relax ()
                    done;
                    "body")))
      in
      let results = Array.map Domain.join flyers in
      Array.iter (fun (b, _) -> check Alcotest.string "same bytes" "body" b) results;
      check Alcotest.int "queued task ran exactly once" 1 (Atomic.get helped_ran);
      check Alcotest.bool "helped counter ticked" true (Coalesce.helped () > helped_before))

let test_coalesce_window () =
  let t = Coalesce.create ~window_ms:2.5 () in
  check (Alcotest.float 0.001) "window readable" 2.5 (Coalesce.window_ms t);
  Coalesce.set_window_ms t 0.;
  let body, follower = Coalesce.run t ~key:"w" (fun () -> "x") in
  check Alcotest.string "solo run unaffected" "x" body;
  check Alcotest.bool "solo run leads" false follower

(* ---- server: plans survive requests, die with the generation -------------- *)

let with_corpora config specs f =
  let server = Server.start_corpora config specs in
  let acceptor = Domain.spawn (fun () -> Server.run server) in
  let port =
    match Server.bound_addr server with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "expected TCP"
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join acceptor)
    (fun () -> f port)

let request port text =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Http.write_all fd text;
      match Http.read_response (Http.reader_of_fd fd) with
      | Ok r -> r
      | Error e -> Alcotest.failf "response: %s" (Http.error_to_string e))

let http_get port target =
  request port (Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n" target)

let http_post port target body =
  request port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s"
       target (String.length body) body)

let batch_stat port name =
  let _, _, body = http_get port "/stats" in
  match Json.of_string body with
  | Ok j -> (
    match Json.member "batch" j with
    | Some b -> (
      match Json.member name b with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.failf "missing batch stat %s" name)
    | None -> Alcotest.fail "missing batch section in /stats")
  | Error msg -> Alcotest.failf "bad stats JSON: %s" msg

let base_config =
  {
    Server.default_config with
    Server.addr = Server.Tcp ("127.0.0.1", 0);
    domains = 2;
    log = false;
    ingest_batch = 4;
  }

let test_server_plan_cache_invalidation () =
  with_corpora base_config
    [ { Server.name = "default"; index = Index.build (Xr_data.Figure1.doc ()); kv = None } ]
    (fun port ->
      (* distinct limits bust the response cache but share one plan key,
         so the second request must hit the plan cache *)
      let _, _, body5 = http_get port "/refine?q=planware&limit=5" in
      let hits0 = batch_stat port "plan_cache_hits" in
      let _, _, body6 = http_get port "/refine?q=planware&limit=6" in
      check Alcotest.bool "limit does not change an empty result" true (body5 = body6);
      let hits1 = batch_stat port "plan_cache_hits" in
      check Alcotest.bool "second request hits the plan cache" true (hits1 > hits0);
      (* publish a generation that actually contains the keyword: the
         new generation id shifts the plan keyspace, so the served
         response must reflect the new index, not the cached plan *)
      let status, _, _ =
        http_post port "/ingest?sync=true" "<extra><note>planware</note></extra>"
      in
      check Alcotest.int "ingest accepted" 200 status;
      let misses0 = batch_stat port "plan_cache_misses" in
      let _, _, body7 = http_get port "/search?q=planware&limit=7" in
      let misses1 = batch_stat port "plan_cache_misses" in
      check Alcotest.bool "new generation compiles a fresh plan" true (misses1 > misses0);
      match Json.of_string body7 with
      | Ok j -> (
        match Json.member "count" j with
        | Some (Json.Int n) ->
          check Alcotest.bool "ingested keyword found via fresh plan" true (n > 0)
        | _ -> Alcotest.fail "search payload has no count")
      | Error msg -> Alcotest.failf "bad search JSON: %s" msg)

let test_server_batch_off_identical () =
  (* the whole batch path is an optimization: every byte served with it
     on must equal the bytes served with it off *)
  let spec () =
    [ { Server.name = "default"; index = Index.build (Xr_data.Figure1.doc ()); kv = None } ]
  in
  let targets =
    [
      "/search?q=xml+database&rank=true";
      "/search?q=xml+database&rank=true&limit=1";
      "/search?q=nothere";
      "/refine?q=xml+databases";
      "/refine?q=xml+databases&k=2&alg=sle";
      "/suggest?q=xml";
    ]
  in
  let serve config =
    with_corpora config (spec ()) (fun port ->
        List.map (fun t -> let _, _, body = http_get port t in body) targets)
  in
  let on = serve base_config in
  let off = serve { base_config with Server.batch = false } in
  List.iter2 (fun a b -> check Alcotest.string "batched bytes = unbatched bytes" b a) on off

let () =
  Alcotest.run "xr_batch"
    [
      ( "tiny",
        [
          qcheck prop_tiny_eq_chunk;
          Alcotest.test_case "dispatch counted" `Quick test_tiny_dispatch_counted;
        ] );
      ("shared-list", [ qcheck prop_concurrent_shared_eq_solo ]);
      ( "plans",
        [
          Alcotest.test_case "search plan = engine" `Quick test_plan_search_eq_engine;
          Alcotest.test_case "tiny-forced plan = engine" `Quick test_plan_search_tiny_forced;
          Alcotest.test_case "refine plan = engine" `Quick test_plan_refine_eq_engine;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hits and eviction" `Quick test_plan_cache_hits_and_eviction;
          Alcotest.test_case "single flight" `Quick test_plan_cache_single_flight;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "single flight" `Quick test_coalesce_single_flight;
          Alcotest.test_case "exception propagates" `Quick test_coalesce_exception_propagates;
          Alcotest.test_case "follower helps the pool" `Quick test_coalesce_follower_helps;
          Alcotest.test_case "window" `Quick test_coalesce_window;
        ] );
      ( "server",
        [
          Alcotest.test_case "plan cache invalidation across publish" `Quick
            test_server_plan_cache_invalidation;
          Alcotest.test_case "batch off serves identical bytes" `Quick
            test_server_batch_off_identical;
        ] );
    ]
