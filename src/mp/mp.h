// Umbrella header for the mdn_mp library.
#pragma once

#include "mp/bridge.h"
#include "mp/message.h"
#include "mp/tone_bank.h"
