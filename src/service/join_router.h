#ifndef PBSM_SERVICE_JOIN_ROUTER_H_
#define PBSM_SERVICE_JOIN_ROUTER_H_

#include "service/join_service.h"

namespace pbsm {

using JoinRouter = JoinService;
using RouterQuery = JoinQuery;
using JoinRouterConfig = JoinServiceConfig;

}  // namespace pbsm

#endif  // PBSM_SERVICE_JOIN_ROUTER_H_
