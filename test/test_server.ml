(* The serving subsystem: JSON codec, HTTP parser hardening, sharded LRU
   accounting, worker-pool admission control, read-thread-safety of the
   shared index under parallel domains, and an end-to-end exchange over a
   real socket. *)

module Json = Xr_server.Json
module Http = Xr_server.Http
module Lru = Xr_server.Lru
module Pool = Xr_server.Pool
module Api = Xr_server.Api
module Server = Xr_server.Server
module Index = Xr_index.Index
module Engine = Xr_refine.Engine

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* ---- json --------------------------------------------------------------- *)

let test_json_encode () =
  check Alcotest.string "escaping"
    {json|{"s":"a\"b\\c\nd","n":null,"b":true}|json}
    (Json.to_string
       (Json.Obj [ ("s", Json.String "a\"b\\c\nd"); ("n", Json.Null); ("b", Json.Bool true) ]));
  check Alcotest.string "ints and floats" {json|[1,-2,1.5,0.25]|json}
    (Json.to_string (Json.List [ Json.Int 1; Json.Int (-2); Json.Float 1.5; Json.Float 0.25 ]));
  check Alcotest.string "float is never bare-int" "2.0" (Json.to_string (Json.Float 2.));
  check Alcotest.string "nan encodes as null" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "control chars" "\"\\u0001\""
    (Json.to_string (Json.String "\001"))

let test_json_parse () =
  (match Json.of_string {json| {"a": [1, 2.5, "xA", false], "b": {}} |json} with
  | Ok v ->
    check Alcotest.bool "structure" true
      (Json.equal v
         (Json.Obj
            [
              ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "xA"; Json.Bool false ]);
              ("b", Json.Obj []);
            ]))
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Json.of_string "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  (match Json.of_string "{\"a\":}" with
  | Ok _ -> Alcotest.fail "malformed accepted"
  | Error _ -> ());
  match Json.of_string "" with
  | Ok _ -> Alcotest.fail "empty accepted"
  | Error _ -> ()

(* Round-trip: encode then decode is the identity (floats excluded: the
   12-significant-digit encoder is not injective on all doubles). *)
let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) small_signed_int;
            map (fun s -> Json.String s) string_printable;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair string_printable (self (n / 2)))) );
          ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"json decode (encode v) = v"
    (QCheck.make json_gen ~print:Json.to_string)
    (fun v ->
      match Json.of_string (Json.to_string v) with Ok v' -> Json.equal v v' | Error _ -> false)

(* ---- http parser -------------------------------------------------------- *)

let parse s = Http.read_request (Http.reader_of_string s)

let test_http_request_ok () =
  match parse "GET /search?q=a+b%21&rank=true HTTP/1.1\r\nHost: x\r\nX-N: 1\r\n\r\n" with
  | Ok req ->
    check Alcotest.string "path" "/search" req.Http.path;
    check Alcotest.(option string) "q decoded (plus and percent)" (Some "a b!")
      (Http.query_param req "q");
    check Alcotest.(option string) "rank" (Some "true") (Http.query_param req "rank");
    check Alcotest.(option string) "header names lowercased" (Some "x")
      (Http.header req "HOST");
    check Alcotest.bool "1.1 defaults to keep-alive" true (Http.keep_alive req)
  | Error e -> Alcotest.failf "parse failed: %s" (Http.error_to_string e)

let expect_error name input pred =
  match parse input with
  | Ok _ -> Alcotest.failf "%s: malformed request accepted" name
  | Error e -> check Alcotest.bool (name ^ " error class") true (pred e)

let test_http_malformed () =
  let is_bad = function Http.Bad_request _ -> true | _ -> false in
  expect_error "missing version" "GET /x\r\n\r\n" is_bad;
  expect_error "two tokens" "GET  /x HTTP/1.1\r\n\r\n" is_bad;
  expect_error "bad version" "GET /x HTTP/2.0\r\n\r\n" is_bad;
  expect_error "bad method chars" "GE T /x HTTP/1.1\r\n\r\n" is_bad;
  expect_error "header without colon" "GET /x HTTP/1.1\r\nnocolon\r\n\r\n" is_bad;
  expect_error "header with bad name" "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n" is_bad;
  expect_error "negative content-length" "GET /x HTTP/1.1\r\ncontent-length: -4\r\n\r\n" is_bad;
  expect_error "truncated body" "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc" is_bad;
  match parse "" with
  | Error Http.Eof -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty stream must be Eof"

let test_http_oversized () =
  let is_large = function Http.Too_large _ -> true | _ -> false in
  let long = String.make 9000 'a' in
  expect_error "oversized request line" ("GET /" ^ long ^ " HTTP/1.1\r\n\r\n") is_large;
  expect_error "oversized header line" ("GET /x HTTP/1.1\r\nh: " ^ long ^ "\r\n\r\n") is_large;
  let many =
    String.concat "" (List.init 100 (fun i -> Printf.sprintf "h%d: v\r\n" i))
  in
  expect_error "too many headers" ("GET /x HTTP/1.1\r\n" ^ many ^ "\r\n") is_large;
  expect_error "oversized body"
    "POST /x HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n" is_large;
  (* Custom limits bite earlier. *)
  let limits = { Http.default_limits with Http.max_request_line = 16 } in
  match Http.read_request ~limits (Http.reader_of_string "GET /a-rather-long-target HTTP/1.1\r\n\r\n") with
  | Error (Http.Too_large _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "custom max_request_line not enforced"

let test_http_keepalive () =
  let req v extra =
    match parse (Printf.sprintf "GET / %s\r\n%s\r\n" v extra) with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" (Http.error_to_string e)
  in
  check Alcotest.bool "1.1 default" true (Http.keep_alive (req "HTTP/1.1" ""));
  check Alcotest.bool "1.1 close" false
    (Http.keep_alive (req "HTTP/1.1" "Connection: close\r\n"));
  check Alcotest.bool "1.0 default" false (Http.keep_alive (req "HTTP/1.0" ""));
  check Alcotest.bool "1.0 keep-alive" true
    (Http.keep_alive (req "HTTP/1.0" "Connection: keep-alive\r\n"))

let test_http_response_roundtrip () =
  let resp = Http.json_response (Json.Obj [ ("x", Json.Int 1) ]) in
  let wire = Http.serialize ~keep_alive:true resp in
  match Http.read_response (Http.reader_of_string wire) with
  | Ok (status, headers, body) ->
    check Alcotest.int "status" 200 status;
    check Alcotest.(option string) "content-type" (Some "application/json")
      (List.assoc_opt "content-type" headers);
    check Alcotest.string "body" "{\"x\":1}\n" body
  | Error e -> Alcotest.failf "response parse: %s" (Http.error_to_string e)

(* ---- lru ----------------------------------------------------------------- *)

let test_lru_eviction_order () =
  (* One shard makes the LRU order fully observable. *)
  let c = Lru.create ~shards:1 ~capacity:3 () in
  Lru.add c "a" "1";
  Lru.add c "b" "2";
  Lru.add c "c" "3";
  ignore (Lru.find c "a");
  (* recency now a > c > b *)
  Lru.add c "d" "4";
  (* evicts b *)
  check Alcotest.(option string) "b evicted" None (Lru.find c "b");
  check Alcotest.(option string) "a kept" (Some "1") (Lru.find c "a");
  check Alcotest.(option string) "c kept" (Some "3") (Lru.find c "c");
  check Alcotest.(option string) "d kept" (Some "4") (Lru.find c "d");
  let s = Lru.stats c in
  check Alcotest.int "evictions" 1 s.Lru.evictions;
  check Alcotest.int "entries" 3 s.Lru.entries

let test_lru_accounting () =
  let c = Lru.create ~shards:4 ~capacity:8 () in
  check Alcotest.(option string) "miss on empty" None (Lru.find c "k");
  Lru.add c "k" "v";
  check Alcotest.(option string) "hit" (Some "v") (Lru.find c "k");
  Lru.add c "k" "v2";
  check Alcotest.(option string) "refresh" (Some "v2") (Lru.find c "k");
  let s = Lru.stats c in
  check Alcotest.int "hits" 2 s.Lru.hits;
  check Alcotest.int "misses" 1 s.Lru.misses;
  check Alcotest.int "entries" 1 s.Lru.entries;
  check Alcotest.int "shards" 4 s.Lru.shards

let test_lru_sharding () =
  let shards = 4 in
  let c = Lru.create ~shards ~capacity:100 () in
  let keys = List.init 200 (fun i -> "key-" ^ string_of_int i) in
  List.iter (fun k -> Lru.add c k k) keys;
  (* Every key lands on its hash shard, deterministically. *)
  List.iter
    (fun k ->
      let s = Lru.shard_of c k in
      check Alcotest.bool "shard in range" true (s >= 0 && s < shards);
      check Alcotest.int "stable" s (Lru.shard_of c k))
    keys;
  let s = Lru.stats c in
  check Alcotest.bool "capacity respected" true (s.Lru.entries <= 100);
  check Alcotest.bool "evictions happened" true (s.Lru.evictions >= 100);
  (* find never returns a wrong value *)
  List.iter
    (fun k -> match Lru.find c k with Some v -> check Alcotest.string "value" k v | None -> ())
    keys

let prop_lru_capacity =
  QCheck.Test.make ~count:100 ~name:"lru never exceeds capacity"
    QCheck.(pair (int_range 1 32) (small_list (pair small_printable_string small_printable_string)))
    (fun (capacity, ops) ->
      let c = Lru.create ~shards:3 ~capacity () in
      List.iter (fun (k, v) -> Lru.add c k v) ops;
      (Lru.stats c).Lru.entries <= capacity)

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 () in
  Lru.add c "k" "v";
  check Alcotest.(option string) "never stores" None (Lru.find c "k");
  check Alcotest.int "still counts misses" 1 (Lru.stats c).Lru.misses

(* ---- pool ----------------------------------------------------------------- *)

let test_pool_runs_jobs () =
  let count = Atomic.make 0 in
  let pool = Pool.create ~domains:2 ~queue_bound:16 (fun n -> Atomic.fetch_and_add count n |> ignore) in
  let accepted = List.filter (fun n -> Pool.submit pool n) [ 1; 2; 3; 4; 5 ] in
  Pool.shutdown pool;
  check Alcotest.int "all jobs ran before shutdown returned"
    (List.fold_left ( + ) 0 accepted)
    (Atomic.get count);
  check Alcotest.int "no handler errors" 0 (Pool.handler_errors pool)

let test_pool_admission_control () =
  let gate = Semaphore.Counting.make 0 in
  let ran = Atomic.make 0 in
  let pool =
    Pool.create ~domains:1 ~queue_bound:2 (fun () ->
        Semaphore.Counting.acquire gate;
        Atomic.incr ran)
  in
  (* Rapid burst: 1 job can be in flight, 2 queued; the rest must be
     refused, not queued unboundedly. *)
  let accepted = List.length (List.filter (fun () -> Pool.submit pool ()) (List.init 8 (fun _ -> ()))) in
  check Alcotest.bool "refuses past the bound" true (accepted <= 3);
  check Alcotest.bool "accepts up to the bound" true (accepted >= 2);
  for _ = 1 to 8 do
    Semaphore.Counting.release gate
  done;
  Pool.shutdown pool;
  check Alcotest.int "accepted jobs all ran" accepted (Atomic.get ran)

let test_pool_handler_errors () =
  let pool = Pool.create ~domains:1 ~queue_bound:4 (fun () -> failwith "boom") in
  ignore (Pool.submit pool ());
  ignore (Pool.submit pool ());
  Pool.shutdown pool;
  check Alcotest.int "exceptions counted, workers survive" 2 (Pool.handler_errors pool)

let test_pool_rejects_after_shutdown () =
  let pool = Pool.create ~domains:1 ~queue_bound:4 (fun () -> ()) in
  Pool.shutdown pool;
  check Alcotest.bool "submit after shutdown refused" false (Pool.submit pool ())

(* ---- parallel domains over one shared index ------------------------------- *)

let fig1 = lazy (Index.build (Xr_data.Figure1.doc ()))

let dblp =
  lazy
    (Index.build
       (Xr_data.Dblp.doc ~config:{ Xr_data.Dblp.default_config with publications = 120 } ()))

let parallel_queries =
  [
    [ "database"; "title" ];
    [ "database"; "publication" ];
    (* refinement path *)
    [ "title" ];
    [ "xml"; "database" ];
    [ "publications"; "author" ];
  ]

(* Everything a worker does for /search and /refine, rendered to the exact
   bytes a client would receive. *)
let render_all index =
  List.concat_map
    (fun query ->
      let slcas = Engine.search index query in
      let search_json =
        Json.to_string
          (Api.search_payload index ~query ~ranked:false
             (List.map (fun d -> (d, 0.)) slcas))
      in
      let refine_json =
        Json.to_string (Api.refine_payload index ~query (Engine.refine index query))
      in
      [ search_json; refine_json ])
    parallel_queries

let test_parallel_consistency index_lazy () =
  let index = Lazy.force index_lazy in
  let baseline = render_all index in
  let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> render_all index)) in
  Array.iteri
    (fun i d ->
      let got = Domain.join d in
      List.iteri
        (fun j (expected, actual) ->
          check Alcotest.string (Printf.sprintf "domain %d output %d" i j) expected actual)
        (List.combine baseline got))
    domains

(* The cooccur memo is the only query-time write on the shared index;
   hammer it from several domains and verify the values stay correct. *)
let test_parallel_cooccur () =
  let index = Lazy.force dblp in
  let stats = index.Index.stats in
  let d = index.Index.doc in
  let kws =
    List.filter_map (Xr_xml.Doc.keyword_id d) [ "database"; "title"; "author"; "xml"; "publication" ]
  in
  let pairs =
    List.concat_map (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) kws) kws
  in
  let compute () =
    List.concat_map
      (fun (k1, k2) ->
        List.filter_map
          (fun p ->
            let v = Xr_index.Stats.cooccur stats ~path:p k1 k2 in
            if v = 0 then None else Some (p, k1, k2, v))
          (List.init (Xr_index.Stats.path_count stats) Fun.id))
      pairs
  in
  let seq = compute () in
  let doms = Array.init 4 (fun _ -> Domain.spawn compute) in
  Array.iter
    (fun dm ->
      let got = Domain.join dm in
      check Alcotest.bool "cooccur identical under parallelism" true (got = seq))
    doms

(* ---- end to end over a real socket ---------------------------------------- *)

let http_get fd target =
  Http.write_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n" target);
  match Http.read_response (Http.reader_of_fd fd) with
  | Ok r -> r
  | Error e -> Alcotest.failf "GET %s: %s" target (Http.error_to_string e)

let with_server ?(index = fig1) config f =
  let index = Lazy.force index in
  let server = Server.start config index in
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
    (fun () -> f server port)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let get_closing port target =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> http_get fd target)

let test_e2e_roundtrip () =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 2; log = false }
  in
  with_server config (fun server port ->
      let status, _, body = get_closing port "/health" in
      check Alcotest.int "health 200" 200 status;
      check Alcotest.string "health body" "{\"status\":\"ok\"}\n" body;
      let status, headers, body = get_closing port "/search?q=database+title" in
      check Alcotest.int "search 200" 200 status;
      check Alcotest.(option string) "miss first" (Some "miss") (List.assoc_opt "x-cache" headers);
      (match Json.of_string body with
      | Ok v ->
        check Alcotest.bool "count > 0" true
          (match Json.member "count" v with Some (Json.Int n) -> n > 0 | _ -> false)
      | Error msg -> Alcotest.failf "search body not JSON: %s" msg);
      (* Byte-identical to the in-process engine render. *)
      let index = Lazy.force fig1 in
      let expected =
        Json.to_string
          (Api.search_payload index ~query:[ "database"; "title" ] ~ranked:false ~limit:20
             (List.map (fun d -> (d, 0.)) (Engine.search index [ "database"; "title" ])))
        ^ "\n"
      in
      check Alcotest.string "byte-identical to sequential engine" expected body;
      let _, headers2, body2 = get_closing port "/search?q=database+title" in
      check Alcotest.(option string) "hit second" (Some "hit") (List.assoc_opt "x-cache" headers2);
      check Alcotest.string "cached bytes identical" body body2;
      (* Errors *)
      let status, _, _ = get_closing port "/search" in
      check Alcotest.int "missing q is 400" 400 status;
      let status, _, _ = get_closing port "/nope" in
      check Alcotest.int "unknown endpoint is 404" 404 status;
      let status, _, _ = get_closing port "/search?q=database&limit=wat" in
      check Alcotest.int "bad int param is 400" 400 status;
      (* Metrics reflect all of the above. /metrics is the Prometheus
         text exposition; the JSON document lives at /metrics.json. *)
      let status, _, prom = get_closing port "/metrics" in
      check Alcotest.int "metrics 200" 200 status;
      let contains hay needle =
        let n = String.length needle and len = String.length hay in
        let rec scan i = i + n <= len && (String.sub hay i n = needle || scan (i + 1)) in
        scan 0
      in
      check Alcotest.bool "prometheus text has request counter" true
        (contains prom "xr_http_requests_total{");
      check Alcotest.bool "prometheus text has latency histogram" true
        (contains prom "# TYPE xr_http_request_duration_ms histogram");
      let status, _, body = get_closing port "/metrics.json" in
      check Alcotest.int "metrics.json 200" 200 status;
      (match Json.of_string body with
      | Ok m ->
        let cache_hits =
          match Option.bind (Json.member "cache" m) (Json.member "hits") with
          | Some (Json.Int h) -> h
          | _ -> -1
        in
        check Alcotest.bool "cache hits counted" true (cache_hits >= 1);
        (match Option.bind (Json.member "requests" m) (Json.member "total") with
        | Some (Json.Int n) -> check Alcotest.bool "requests counted" true (n >= 6)
        | _ -> Alcotest.fail "requests.total missing")
      | Error msg -> Alcotest.failf "metrics not JSON: %s" msg);
      ignore server)

let test_e2e_keepalive_and_405 () =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1; log = false }
  in
  with_server config (fun _server port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let reader = Http.reader_of_fd fd in
          let get target =
            Http.write_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\n\r\n" target);
            match Http.read_response reader with
            | Ok r -> r
            | Error e -> Alcotest.failf "keep-alive GET: %s" (Http.error_to_string e)
          in
          (* Several requests over one connection. *)
          let s1, _, _ = get "/health" in
          let s2, _, _ = get "/stats" in
          let s3, _, b3 = get "/complete?prefix=dat" in
          check Alcotest.int "first" 200 s1;
          check Alcotest.int "second" 200 s2;
          check Alcotest.int "third" 200 s3;
          check Alcotest.bool "completion found" true
            (match Json.of_string b3 with
            | Ok v -> (
              match Json.member "completions" v with
              | Some (Json.List (_ :: _)) -> true
              | _ -> false)
            | Error _ -> false);
          (* POST is refused politely. *)
          Http.write_all fd "POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n";
          match Http.read_response reader with
          | Ok (status, _, _) -> check Alcotest.int "POST is 405" 405 status
          | Error e -> Alcotest.failf "405 read: %s" (Http.error_to_string e)))

let test_e2e_malformed_gets_400 () =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1; log = false }
  in
  with_server config (fun _server port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Http.write_all fd "NOT-HTTP\r\n\r\n";
          match Http.read_response (Http.reader_of_fd fd) with
          | Ok (status, _, _) -> check Alcotest.int "malformed is 400" 400 status
          | Error e -> Alcotest.failf "read: %s" (Http.error_to_string e)))

(* A refinement needs room for at least one query: k below 1 is the
   client's error, rejected before any engine runs. *)
let test_e2e_refine_k () =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1; log = false }
  in
  with_server config (fun _server port ->
      List.iter
        (fun k ->
          let status, _, body = get_closing port ("/refine?q=databse+xml&k=" ^ k) in
          check Alcotest.int ("k=" ^ k ^ " status") 400 status;
          check Alcotest.string ("k=" ^ k ^ " body")
            "{\"error\":\"parameter k must be at least 1\"}\n" body)
        [ "0"; "-3" ];
      let status, _, _ = get_closing port "/refine?q=databse+xml&k=1" in
      check Alcotest.int "k=1 status" 200 status)

(* [k] sizes the /suggest and /complete lists as it does /refine's: an
   empty list for k below 1 would read as a real "nothing found", so
   both endpoints reject it with /refine's error. *)
let test_e2e_top_k_below_one endpoint =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1; log = false }
  in
  with_server config (fun _server port ->
      List.iter
        (fun k ->
          let status, _, body = get_closing port (endpoint ^ "&k=" ^ k) in
          check Alcotest.int ("k=" ^ k ^ " status") 400 status;
          check Alcotest.string ("k=" ^ k ^ " body")
            "{\"error\":\"parameter k must be at least 1\"}\n" body)
        [ "0"; "-1" ];
      let status, _, _ = get_closing port (endpoint ^ "&k=1") in
      check Alcotest.int "k=1 status" 200 status)

(* [scan-parallel] names the deleted chunked kernel; it stays accepted
   and answers exactly what scan-packed answers. *)
let test_e2e_scan_parallel_alias () =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1; log = false }
  in
  with_server config (fun _server port ->
      let fetch alg =
        let status, _, body = get_closing port ("/search?q=database+title&alg=" ^ alg) in
        check Alcotest.int (alg ^ " status") 200 status;
        body
      in
      check Alcotest.string "same body" (fetch "scan-packed") (fetch "scan-parallel"))

(* ---- explain / analyze / trace lookup --------------------------------------- *)

let test_e2e_introspection () =
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1; log = false }
  in
  with_server config (fun _server port ->
      let member2 k1 k2 v = Option.bind (Json.member k1 v) (Json.member k2) in
      (* explain=1 appends the compiled-plan block to a normal response. *)
      let status, _, body = get_closing port "/search?q=database+title&explain=1" in
      check Alcotest.int "explain 200" 200 status;
      let v = match Json.of_string body with Ok v -> v | Error e -> Alcotest.fail e in
      check Alcotest.bool "results still rendered" true
        (match Json.member "results" v with Some (Json.List (_ :: _)) -> true | _ -> false);
      (match member2 "explain" "kernel" v with
      | Some (Json.String k) -> check Alcotest.bool "kernel named" true (k <> "")
      | _ -> Alcotest.fail "explain.kernel missing");
      (match member2 "explain" "keywords" v with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "explain.keywords missing");
      (* The explain payload is byte-identical to the library's own
         compilation of the same query. *)
      let expected =
        Json.to_string (Api.explain_payload (Xr_batch.Plan.explain_search (Lazy.force fig1) [ "database"; "title" ]))
      in
      (match Json.member "explain" v with
      | Some x -> check Alcotest.string "explain = library compile" expected (Json.to_string x)
      | None -> Alcotest.fail "explain block missing");
      (* analyze=1 implies explain and adds actuals: stages with
         candidate counts, the GC delta, the pool-task fold. *)
      let status, _, body = get_closing port "/search?q=database+title&analyze=1" in
      check Alcotest.int "analyze 200" 200 status;
      let v = match Json.of_string body with Ok v -> v | Error e -> Alcotest.fail e in
      check Alcotest.bool "analyze implies explain" true (Json.member "explain" v <> None);
      (match member2 "analyze" "stages" v with
      | Some (Json.List (_ :: _ as stages)) ->
        check Alcotest.bool "stage names present" true
          (List.for_all
             (fun s -> match Json.member "stage" s with Some (Json.String _) -> true | _ -> false)
             stages)
      | _ -> Alcotest.fail "analyze.stages missing or empty");
      (match member2 "analyze" "gc" v with
      | Some gc ->
        check Alcotest.bool "gc delta has allocated_words" true
          (match Json.member "allocated_words" gc with Some (Json.Float _) -> true | _ -> false)
      | None -> Alcotest.fail "analyze.gc missing");
      (* ANALYZE bypasses the result cache, so the body must match the
         cacheable render it would otherwise shadow. *)
      let _, _, plain = get_closing port "/search?q=database+title" in
      let plain_v = match Json.of_string plain with Ok v -> v | Error e -> Alcotest.fail e in
      check Alcotest.bool "analyzed results = plain results" true
        (Json.member "results" v = Json.member "results" plain_v);
      (* /debug/trace?id= retrieves one trace; unknown and malformed ids
         answer 404/400 with a JSON error. *)
      let status, _, body = get_closing port "/debug/trace?id=999999" in
      check Alcotest.int "unknown trace is 404" 404 status;
      (match Json.of_string body with
      | Ok e -> check Alcotest.bool "404 body is error JSON" true (Json.member "error" e <> None)
      | Error e -> Alcotest.failf "404 body not JSON: %s" e);
      let status, _, _ = get_closing port "/debug/trace?id=wat" in
      check Alcotest.int "malformed trace id is 400" 400 status;
      (* An id captured from a latency exemplar resolves to its spans. *)
      let _, _, prom = get_closing port "/metrics" in
      let contains hay needle =
        let n = String.length needle and len = String.length hay in
        let rec scan i = i + n <= len && (String.sub hay i n = needle || scan (i + 1)) in
        scan 0
      in
      check Alcotest.bool "duration bucket carries exemplar" true
        (contains prom "xr_http_request_duration_ms_bucket{endpoint=\"/search\""
        && contains prom "# {trace_id=\"");
      check Alcotest.bool "gc families exported" true
        (contains prom "# TYPE xr_gc_heap_words gauge"
        && contains prom "# TYPE xr_gc_allocated_words_total counter");
      let tid =
        let marker = "# {trace_id=\"" in
        let rec find i =
          if i + String.length marker > String.length prom then Alcotest.fail "no exemplar"
          else if String.sub prom i (String.length marker) = marker then begin
            let j = ref (i + String.length marker) in
            while prom.[!j] <> '"' do incr j done;
            int_of_string (String.sub prom (i + String.length marker) (!j - i - String.length marker))
          end
          else find (i + 1)
        in
        find 0
      in
      let status, _, body = get_closing port (Printf.sprintf "/debug/trace?id=%d" tid) in
      check Alcotest.int "exemplar trace resolves" 200 status;
      match Json.of_string body with
      | Ok v ->
        check Alcotest.bool "trace document has spans" true
          (match Json.member "traces" v with Some (Json.List (_ :: _)) -> true | _ -> false)
      | Error e -> Alcotest.failf "trace body not JSON: %s" e)

(* The slow-query line carries the serving attribution (corpus,
   generation) next to the trace id and spans. *)
let test_slowlog_corpora () =
  let line =
    Xr_obs.Slowlog.render ~endpoint:"/search" ~status:200 ~ms:12.5 ~trace_id:3
      ~corpora:[ ("dblp", 4) ] []
  in
  let contains needle =
    let n = String.length needle and len = String.length line in
    let rec scan i = i + n <= len && (String.sub line i n = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "corpora field rendered" true
    (contains {|"corpora":[{"corpus":"dblp","generation":4}]|});
  check Alcotest.bool "trace id rendered" true (contains {|"trace":3|});
  let bare =
    Xr_obs.Slowlog.render ~endpoint:"/health" ~status:200 ~ms:1. ~trace_id:0 []
  in
  let bare_contains needle =
    let n = String.length needle and len = String.length bare in
    let rec scan i = i + n <= len && (String.sub bare i n = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "no corpora field when empty" false (bare_contains {|"corpora"|})

(* ---- api payload sanity ---------------------------------------------------- *)

let test_api_payloads () =
  let index = Lazy.force fig1 in
  let query = [ "database"; "title" ] in
  let slcas = Engine.search index query in
  let v =
    Api.search_payload index ~query ~ranked:false (List.map (fun d -> (d, 0.)) slcas)
  in
  check Alcotest.bool "search payload has results" true
    (match Json.member "results" v with Some (Json.List (_ :: _)) -> true | _ -> false);
  (* limit truncates the rendered list but not the count *)
  let limited =
    Api.search_payload index ~query ~ranked:false ~limit:0 (List.map (fun d -> (d, 0.)) slcas)
  in
  check Alcotest.bool "limit 0 renders no result" true
    (match Json.member "results" limited with Some (Json.List []) -> true | _ -> false);
  check Alcotest.bool "count survives limit" true
    (Json.member "count" limited = Json.member "count" v);
  let refined = Api.refine_payload index ~query:[ "database"; "publication" ]
      (Engine.refine index [ "database"; "publication" ])
  in
  check Alcotest.bool "refine outcome present" true
    (match Json.member "outcome" refined with Some (Json.String _) -> true | _ -> false)

(* ---- golden /refine bodies ------------------------------------------------- *)

(* File-driven: each [cases/refine/NAME.target] holds one request target
   and [NAME.json] the exact body [Server.handle] answers for it on the
   [dblp] corpus above. The cases cover one query per defect kind, one
   that matches as-is and one with no result; the bodies pin the
   similarity, dependence and rank floats byte for byte, which the
   oracle groups do not. A missing file fails its case. *)
let golden_dir = "cases/refine"

let golden_names =
  [
    "01-misspell";
    "02-split-word";
    "03-merged-words";
    "04-synonym";
    "05-acronym";
    "06-overconstrain";
    "07-as-is";
    "08-no-result";
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_golden_refine name () =
  let target = String.trim (read_file (Filename.concat golden_dir (name ^ ".target"))) in
  let expected = read_file (Filename.concat golden_dir (name ^ ".json")) in
  let req =
    match parse (Printf.sprintf "GET %s HTTP/1.1\r\nhost: test\r\n\r\n" target) with
    | Ok req -> req
    | Error e -> Alcotest.failf "%s: %s" target (Http.error_to_string e)
  in
  let config =
    { Server.default_config with Server.addr = Server.Tcp ("127.0.0.1", 0); domains = 1 }
  in
  with_server ~index:dblp config (fun server _port ->
      let resp = Server.handle server req in
      check Alcotest.int (target ^ " status") 200 resp.Http.status;
      if resp.Http.resp_body <> expected then
        (* left next to the test binary, to inspect or to replace the
           golden body with when a change is meant to alter it *)
        Out_channel.with_open_bin (name ^ ".json.actual") (fun oc ->
            output_string oc resp.Http.resp_body);
      check Alcotest.string (target ^ " body") expected resp.Http.resp_body)

(* ---- suite ------------------------------------------------------------------ *)

let () =
  Alcotest.run "xr_server"
    [
      ( "json",
        [
          Alcotest.test_case "encoder" `Quick test_json_encode;
          Alcotest.test_case "parser" `Quick test_json_parse;
          qcheck prop_json_roundtrip;
        ] );
      ( "http",
        [
          Alcotest.test_case "well-formed request" `Quick test_http_request_ok;
          Alcotest.test_case "malformed request lines" `Quick test_http_malformed;
          Alcotest.test_case "oversized inputs" `Quick test_http_oversized;
          Alcotest.test_case "keep-alive negotiation" `Quick test_http_keepalive;
          Alcotest.test_case "response round-trip" `Quick test_http_response_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "hit/miss accounting" `Quick test_lru_accounting;
          Alcotest.test_case "sharding" `Quick test_lru_sharding;
          Alcotest.test_case "capacity 0 disables" `Quick test_lru_disabled;
          qcheck prop_lru_capacity;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs submitted jobs" `Quick test_pool_runs_jobs;
          Alcotest.test_case "admission control refuses over bound" `Quick
            test_pool_admission_control;
          Alcotest.test_case "handler exceptions are contained" `Quick test_pool_handler_errors;
          Alcotest.test_case "rejects after shutdown" `Quick test_pool_rejects_after_shutdown;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "figure1: 4 domains = sequential" `Quick
            (test_parallel_consistency fig1);
          Alcotest.test_case "dblp: 4 domains = sequential" `Slow
            (test_parallel_consistency dblp);
          Alcotest.test_case "cooccur memo race-free" `Quick test_parallel_cooccur;
        ] );
      ( "api",
        [ Alcotest.test_case "payload shapes" `Quick test_api_payloads ] );
      ( "e2e",
        [
          Alcotest.test_case "socket round-trip, cache, errors" `Quick test_e2e_roundtrip;
          Alcotest.test_case "keep-alive and 405" `Quick test_e2e_keepalive_and_405;
          Alcotest.test_case "malformed request over socket" `Quick test_e2e_malformed_gets_400;
          Alcotest.test_case "refine k below 1 is a 400" `Quick test_e2e_refine_k;
          Alcotest.test_case "suggest k below 1 is a 400" `Quick
            (fun () -> test_e2e_top_k_below_one "/suggest?q=database");
          Alcotest.test_case "complete k below 1 is a 400" `Quick
            (fun () -> test_e2e_top_k_below_one "/complete?prefix=da");
          Alcotest.test_case "alg=scan-parallel = scan-packed" `Quick
            test_e2e_scan_parallel_alias;
          Alcotest.test_case "explain/analyze/trace lookup" `Quick test_e2e_introspection;
          Alcotest.test_case "slow-query corpora field" `Quick test_slowlog_corpora;
        ] );
      ( "refine-golden",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_golden_refine name))
          golden_names );
    ]
